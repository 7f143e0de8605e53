package rex

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"incgraph/internal/graph"
)

// corpus is the parser's test corpus.
var corpus = []string{
	"a",
	"a.b",
	"a+b",
	"a.b+c",
	"(a+b).c",
	"a*",
	"(a.b)*",
	"c.(b.a+c)*.c", // the paper's Example 4 query
	"@",
	"@+a",
	"a.(b+@)",
}

func TestParsePrintRoundTrip(t *testing.T) {
	for _, c := range corpus {
		a, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		b, err := Parse(a.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", c, a.String(), err)
		}
		if !a.Equal(b) {
			t.Fatalf("round trip changed %q: %q", c, a.String())
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Validate(%q): %v", c, err)
		}
	}
}

func TestParseImplicitConcat(t *testing.T) {
	a := MustParse("ab") // single label "ab"
	if a.Kind != Lbl || a.Label != "ab" {
		t.Fatalf("identifier split: %v", a)
	}
	b := MustParse("a b") // juxtaposition = concat
	if b.Kind != Concat {
		t.Fatalf("juxtaposition not concat: %v", b)
	}
	c := MustParse("a(b+c)")
	if c.Kind != Concat || c.Right.Kind != Union {
		t.Fatalf("paren juxtaposition: %v", c)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "+a", "a+", "(a", "a)", "a..b", "*", "a^b", "()"}
	for _, c := range bad {
		if _, err := Parse(c); err == nil {
			t.Fatalf("Parse(%q) accepted bad input", c)
		}
	}
}

func TestSizeAndAlphabet(t *testing.T) {
	a := MustParse("c.(b.a+c)*.c")
	if a.Size() != 5 {
		t.Fatalf("|Q| = %d, want 5", a.Size())
	}
	al := a.Alphabet()
	if strings.Join(al, ",") != "a,b,c" {
		t.Fatalf("alphabet = %v", al)
	}
	if MustParse("@").Size() != 0 {
		t.Fatalf("ε has size 0")
	}
}

func TestNullable(t *testing.T) {
	cases := map[string]bool{
		"@": true, "a": false, "a*": true, "a.b": false,
		"a*.b*": true, "a+@": true, "a+b": false, "(a.b)*": true,
	}
	for q, want := range cases {
		if got := MustParse(q).Nullable(); got != want {
			t.Fatalf("Nullable(%q) = %v", q, got)
		}
	}
}

func TestMatchSeqGroundTruth(t *testing.T) {
	a := MustParse("c.(b.a+c)*.c")
	yes := [][]string{
		{"c", "c"},
		{"c", "b", "a", "c"},
		{"c", "c", "c"},
		{"c", "b", "a", "b", "a", "c"},
		{"c", "b", "a", "c", "c"},
	}
	no := [][]string{
		{}, {"c"}, {"c", "b", "c"}, {"b", "a", "c"}, {"c", "a", "b", "c"},
	}
	for _, s := range yes {
		if !a.MatchSeq(s) {
			t.Fatalf("MatchSeq(%v) = false", s)
		}
	}
	for _, s := range no {
		if a.MatchSeq(s) {
			t.Fatalf("MatchSeq(%v) = true", s)
		}
	}
}

func TestGlushkovStates(t *testing.T) {
	a := MustParse("c.(b.a+c)*.c")
	n := Compile(a)
	if n.NumStates() != a.Size()+1 {
		t.Fatalf("states = %d, want |Q|+1 = %d", n.NumStates(), a.Size()+1)
	}
	if n.AcceptsEmpty() {
		t.Fatalf("language should not contain ε")
	}
	if !Compile(MustParse("a*")).AcceptsEmpty() {
		t.Fatalf("a* must accept ε")
	}
}

func TestNFAOnExamples(t *testing.T) {
	n := Compile(MustParse("c.(b.a+c)*.c"))
	if !n.MatchSeq([]string{"c", "c"}) || !n.MatchSeq([]string{"c", "b", "a", "c"}) {
		t.Fatalf("NFA rejects members")
	}
	if n.MatchSeq([]string{"c"}) || n.MatchSeq([]string{"c", "b", "c"}) {
		t.Fatalf("NFA accepts non-members")
	}
}

func TestDenseTablesTranspose(t *testing.T) {
	// PrevID is the exact transpose of NextID, and both agree with the
	// string-keyed Next, for every state and every label: the expression's
	// own, one foreign to it, and NoLabel.
	foreign := graph.InternLabel("rex-test-foreign")
	for _, c := range corpus {
		a := MustParse(c)
		n := Compile(a)
		lids := []graph.LabelID{foreign, graph.NoLabel}
		for _, l := range a.Alphabet() {
			lids = append(lids, graph.InternLabel(l))
		}
		for _, lid := range lids {
			for s := 0; s < n.NumStates(); s++ {
				if want := n.Next(s, graph.LabelOf(lid)); !slices.Equal(n.NextID(s, lid), want) {
					t.Fatalf("%s: NextID(%d, %q) = %v, Next says %v", c, s, graph.LabelOf(lid), n.NextID(s, lid), want)
				}
				for t2 := 0; t2 < n.NumStates(); t2++ {
					fwd := slices.Contains(n.NextID(s, lid), t2)
					if back := slices.Contains(n.PrevID(t2, lid), s); fwd != back {
						t.Fatalf("%s: %d ∈ NextID(%d, %q) is %v, %d ∈ PrevID(%d, ·) is %v", c, t2, s, graph.LabelOf(lid), fwd, s, t2, back)
					}
				}
				if !slices.IsSorted(n.PrevID(s, lid)) {
					t.Fatalf("%s: PrevID(%d, %q) = %v, not ascending", c, s, graph.LabelOf(lid), n.PrevID(s, lid))
				}
			}
		}
	}
}

func TestLabelInternedAfterCompile(t *testing.T) {
	// A label interned after Compile has an ID past the end of the dense
	// table: it must read as "no transition", not index out of range.
	n := Compile(MustParse("c.(b.a+c)*.c"))
	late := graph.InternLabel(fmt.Sprintf("rex-test-late-%d", graph.InternedLabels()))
	for s := 0; s < n.NumStates(); s++ {
		if got := n.NextID(s, late); len(got) != 0 {
			t.Fatalf("NextID(%d, late label) = %v", s, got)
		}
		if got := n.PrevID(s, late); len(got) != 0 {
			t.Fatalf("PrevID(%d, late label) = %v", s, got)
		}
	}
}

// randAst builds a random expression over a tiny alphabet.
func randAst(rng *rand.Rand, depth int) *Ast {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(8) == 0 {
			return Epsilon()
		}
		return Label(string(rune('a' + rng.Intn(3))))
	}
	switch rng.Intn(3) {
	case 0:
		return Cat(randAst(rng, depth-1), randAst(rng, depth-1))
	case 1:
		return Or(randAst(rng, depth-1), randAst(rng, depth-1))
	default:
		return Rep(randAst(rng, depth-1))
	}
}

func TestNFAAgreesWithASTProperty(t *testing.T) {
	// Property: the Glushkov NFA accepts exactly the strings the AST
	// matcher accepts, for random expressions and random short strings.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randAst(rng, 3)
		n := Compile(a)
		for trial := 0; trial < 40; trial++ {
			ln := rng.Intn(6)
			s := make([]string, ln)
			for i := range s {
				s[i] = string(rune('a' + rng.Intn(3)))
			}
			if a.MatchSeq(s) != n.MatchSeq(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNFAParseStringRoundTripProperty(t *testing.T) {
	// Property: Parse(ast.String()) has the same language on sampled strings.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randAst(rng, 3)
		b, err := Parse(a.String())
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			ln := rng.Intn(5)
			s := make([]string, ln)
			for i := range s {
				s[i] = string(rune('a' + rng.Intn(3)))
			}
			if a.MatchSeq(s) != b.MatchSeq(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonOnlyQuery(t *testing.T) {
	// ε matches only the empty string — and no node path has an empty
	// label string, so an ε-query NFA accepts nothing of length ≥ 1.
	n := Compile(MustParse("@"))
	if !n.AcceptsEmpty() {
		t.Fatalf("ε must accept empty")
	}
	if n.MatchSeq([]string{"a"}) {
		t.Fatalf("ε matched a label")
	}
	if n.NumStates() != 1 {
		t.Fatalf("ε NFA states = %d", n.NumStates())
	}
}

func TestStarOfUnionLanguage(t *testing.T) {
	a := MustParse("(a+b)*")
	n := Compile(a)
	for _, s := range [][]string{{}, {"a"}, {"b", "a", "b"}, {"a", "a", "a", "b"}} {
		if !n.MatchSeq(s) {
			t.Fatalf("(a+b)* rejected %v", s)
		}
	}
	if n.MatchSeq([]string{"a", "c"}) {
		t.Fatalf("(a+b)* accepted c")
	}
}

func TestNestedStars(t *testing.T) {
	// (a*)* ≡ a*: same language, and the Glushkov construction must not
	// blow up or loop.
	a := MustParse("(a*)*")
	b := MustParse("a*")
	na, nb := Compile(a), Compile(b)
	for ln := 0; ln <= 4; ln++ {
		s := make([]string, ln)
		for i := range s {
			s[i] = "a"
		}
		if na.MatchSeq(s) != nb.MatchSeq(s) {
			t.Fatalf("(a*)* and a* differ on length %d", ln)
		}
	}
}

// FuzzParse feeds the parser arbitrary text. It must never panic; an
// expression it accepts must print to text that parses back Equal, and its
// Glushkov automaton must decide every prefix of a label sequence drawn
// from the expression's alphabet (plus one label outside it) exactly as
// the reference matcher does.
func FuzzParse(f *testing.F) {
	for i, c := range corpus {
		f.Add(c, []byte{byte(i), 1, 0, 2, 1})
	}
	f.Add("((a))**+ε b", []byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, expr string, seq []byte) {
		a, err := Parse(expr)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Parse(%q) built an invalid tree: %v", expr, err)
		}
		text := a.String()
		b, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", expr, text, err)
		}
		if !a.Equal(b) {
			t.Fatalf("Parse(%q) printed %q, which parses to %q", expr, text, b.String())
		}
		alphabet := append(a.Alphabet(), "") // "" is never a label
		labels := make([]string, 0, 8)
		for _, c := range seq[:min(len(seq), 8)] {
			labels = append(labels, alphabet[int(c)%len(alphabet)])
		}
		nfa := Compile(a)
		for n := 0; n <= len(labels); n++ {
			if got, want := nfa.MatchSeq(labels[:n]), a.MatchSeq(labels[:n]); got != want {
				t.Fatalf("%q on %q: automaton %v, reference %v", text, labels[:n], got, want)
			}
		}
	})
}
