// Package rex implements regular path expressions for RPQ (Section 2.1 of
// Fan, Hu & Tian, SIGMOD 2017):
//
//	Q ::= ε | α | Q·Q | Q+Q | Q*
//
// where α is a node label. It provides a parser, a Glushkov (position)
// automaton construction — an ε-free NFA with |Q|+1 states, our stand-in
// for the Hromkovic et al. construction the paper uses — and a reference
// matcher used to cross-check the NFA in property tests.
package rex

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates AST nodes.
type Kind int8

// AST node kinds.
const (
	Eps    Kind = iota // ε, the empty string
	Lbl                // a single label α
	Concat             // Q1 · Q2
	Union              // Q1 + Q2
	Star               // Q1*
)

// Ast is a regular path expression tree.
type Ast struct {
	Kind        Kind
	Label       string // for Lbl
	Left, Right *Ast   // Right is nil for Star
}

// Epsilon returns the ε expression.
func Epsilon() *Ast { return &Ast{Kind: Eps} }

// Label returns the single-label expression α.
func Label(alpha string) *Ast { return &Ast{Kind: Lbl, Label: alpha} }

// Cat returns l · r.
func Cat(l, r *Ast) *Ast { return &Ast{Kind: Concat, Left: l, Right: r} }

// Or returns l + r.
func Or(l, r *Ast) *Ast { return &Ast{Kind: Union, Left: l, Right: r} }

// Rep returns l*.
func Rep(l *Ast) *Ast { return &Ast{Kind: Star, Left: l} }

// Size returns |Q|: the number of label occurrences in the expression,
// the query-size measure the paper uses for RPQ.
func (a *Ast) Size() int {
	if a == nil {
		return 0
	}
	switch a.Kind {
	case Eps:
		return 0
	case Lbl:
		return 1
	case Star:
		return a.Left.Size()
	default:
		return a.Left.Size() + a.Right.Size()
	}
}

// Alphabet returns the sorted set of labels occurring in the expression.
func (a *Ast) Alphabet() []string {
	set := make(map[string]bool)
	a.walk(func(n *Ast) {
		if n.Kind == Lbl {
			set[n.Label] = true
		}
	})
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func (a *Ast) walk(fn func(*Ast)) {
	if a == nil {
		return
	}
	fn(a)
	a.Left.walk(fn)
	a.Right.walk(fn)
}

// String renders the expression with explicit operators and minimal
// parentheses; the parser accepts its output.
func (a *Ast) String() string {
	var b strings.Builder
	a.render(&b, 0)
	return b.String()
}

// precedence: Union < Concat < Star. The parser builds chains of one
// operator left-nested, so a right child of the same operator is
// parenthesized: Cat(a, Cat(b, c)) prints as a.(b.c), not as a.b.c,
// which would parse back as Cat(Cat(a, b), c).
func (a *Ast) render(b *strings.Builder, parentPrec int) {
	if a == nil {
		return
	}
	prec := 0
	switch a.Kind {
	case Union:
		prec = 1
	case Concat:
		prec = 2
	case Star, Lbl, Eps:
		prec = 3
	}
	paren := prec < parentPrec
	if paren {
		b.WriteByte('(')
	}
	switch a.Kind {
	case Eps:
		b.WriteByte('@')
	case Lbl:
		b.WriteString(a.Label)
	case Concat:
		a.Left.render(b, 2)
		b.WriteByte('.')
		a.Right.render(b, 3)
	case Union:
		a.Left.render(b, 1)
		b.WriteByte('+')
		a.Right.render(b, 2)
	case Star:
		a.Left.render(b, 4)
		b.WriteByte('*')
	}
	if paren {
		b.WriteByte(')')
	}
}

// Nullable reports whether ε ∈ L(a).
func (a *Ast) Nullable() bool {
	switch a.Kind {
	case Eps, Star:
		return true
	case Lbl:
		return false
	case Concat:
		return a.Left.Nullable() && a.Right.Nullable()
	case Union:
		return a.Left.Nullable() || a.Right.Nullable()
	}
	return false
}

// MatchSeq reports whether the label sequence is in L(a). It is a direct
// O(n³)-ish dynamic-programming evaluator over the AST, independent of the
// NFA construction, used as the ground truth in tests.
func (a *Ast) MatchSeq(labels []string) bool {
	type key struct {
		node *Ast
		i, j int
	}
	memo := make(map[key]bool)
	var match func(n *Ast, i, j int) bool
	match = func(n *Ast, i, j int) bool {
		k := key{n, i, j}
		if v, ok := memo[k]; ok {
			return v
		}
		// Seed false to break Star-recursion cycles on the same span.
		memo[k] = false
		var res bool
		switch n.Kind {
		case Eps:
			res = i == j
		case Lbl:
			res = j == i+1 && labels[i] == n.Label
		case Concat:
			for m := i; m <= j && !res; m++ {
				res = match(n.Left, i, m) && match(n.Right, m, j)
			}
		case Union:
			res = match(n.Left, i, j) || match(n.Right, i, j)
		case Star:
			if i == j {
				res = true
			}
			// Consume a non-empty prefix with Left, remainder with Star.
			for m := i + 1; m <= j && !res; m++ {
				res = match(n.Left, i, m) && match(n, m, j)
			}
		}
		memo[k] = res
		return res
	}
	return match(a, 0, len(labels))
}

// Equal reports structural equality of expressions.
func (a *Ast) Equal(b *Ast) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Label != b.Label {
		return false
	}
	return a.Left.Equal(b.Left) && a.Right.Equal(b.Right)
}

// Validate checks structural well-formedness (useful after hand-building).
func (a *Ast) Validate() error {
	if a == nil {
		return fmt.Errorf("rex: nil expression")
	}
	switch a.Kind {
	case Eps:
		if a.Left != nil || a.Right != nil {
			return fmt.Errorf("rex: ε with children")
		}
	case Lbl:
		if a.Label == "" {
			return fmt.Errorf("rex: empty label")
		}
		if a.Left != nil || a.Right != nil {
			return fmt.Errorf("rex: label with children")
		}
	case Concat, Union:
		if a.Left == nil || a.Right == nil {
			return fmt.Errorf("rex: binary node missing child")
		}
		if err := a.Left.Validate(); err != nil {
			return err
		}
		return a.Right.Validate()
	case Star:
		if a.Left == nil || a.Right != nil {
			return fmt.Errorf("rex: star must have exactly one child")
		}
		return a.Left.Validate()
	default:
		return fmt.Errorf("rex: unknown kind %d", a.Kind)
	}
	return nil
}
