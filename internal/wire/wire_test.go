package wire

import (
	"fmt"
	"strings"
	"testing"

	"incgraph"
)

// TestAppliedLineMatchesFmt pins the commit ack, which clients parse (perf
// sums |ΔO| per class out of it), and the stage ack to the fmt renderings
// they replaced.
func TestAppliedLineMatchesFmt(t *testing.T) {
	classes := []string{"kws", "rpq", "iso", "scc"}
	cases := []struct {
		n    int
		gen  uint64
		sums []incgraph.DeltaSummary
	}{
		{1, 0, []incgraph.DeltaSummary{{}, {}, {}, {}}},
		{32, 1234567, []incgraph.DeltaSummary{{Added: 3, Removed: 1, Updated: 12}, {Added: 40}, {Removed: 7}, {Added: 1, Removed: 2}}},
		{1 << 20, 1<<64 - 1, []incgraph.DeltaSummary{{Added: 1 << 40, Removed: 1 << 41, Updated: 1 << 42}, {}, {}, {}}},
	}
	for _, c := range cases {
		if got, want := string(AppendStaged(nil, c.n)), fmt.Sprintf("ok staged %d\n", c.n); got != want {
			t.Fatalf("AppendStaged = %q, fmt renders %q", got, want)
		}
		for k := 0; k <= len(classes); k++ {
			var want strings.Builder
			fmt.Fprintf(&want, "ok applied %d gen=%d", c.n, c.gen)
			for i, class := range classes[:k] {
				fmt.Fprintf(&want, " %s=%s", class, c.sums[i])
			}
			want.WriteString("\n")
			if got := string(AppendApplied(nil, c.n, c.gen, classes[:k], c.sums[:k])); got != want.String() {
				t.Fatalf("AppendApplied = %q, fmt renders %q", got, want.String())
			}
		}
	}
}

// reencode parses line as every reply kind and, for each kind that accepts
// it, writes the value back with that kind's Append function.
func reencode(line string) map[string]string {
	out := make(map[string]string)
	if e, err := ParseError(line); err == nil {
		out["error"] = string(AppendError(nil, e.Category, e.Detail))
	}
	if n, err := ParseStaged(line); err == nil {
		out["staged"] = string(AppendStaged(nil, n))
	}
	if n, err := ParseAborted(line); err == nil {
		out["aborted"] = string(AppendAborted(nil, n))
	}
	if a, err := ParseApplied(line); err == nil {
		out["applied"] = string(AppendApplied(nil, a.N, a.Gen, a.Classes, a.Deltas))
	}
	if r, err := ParseRead(line); err == nil {
		out["read"] = string(AppendRead(nil, r.Class, r.Size, r.Gen))
	}
	if f, err := ParseFields(line); err == nil {
		out["fields"] = string(AppendFields(nil, f))
	}
	if term, err := ParsePromoted(line); err == nil {
		out["promoted"] = string(AppendPromoted(nil, term))
	}
	if epoch, err := ParseCheckpoint(line); err == nil {
		out["checkpoint"] = string(AppendCheckpoint(nil, epoch))
	}
	if ParseBye(line) == nil {
		out["bye"] = string(AppendBye(nil))
	}
	return out
}

// FuzzWire: no Parse function panics, and a line one accepts re-encodes
// through its Append function to the same bytes. The corpus holds one
// line of every reply kind the daemon writes (TestReplyBytes in
// cmd/incgraphd pins them there) and near misses. The replies the daemon
// writes per staged update, per commit and per read allocate nothing in a
// buffer with room.
func FuzzWire(f *testing.F) {
	buf := make([]byte, 0, 512)
	classes := []string{"kws", "rpq", "iso", "scc"}
	sums := []incgraph.DeltaSummary{{Added: 3, Removed: 1, Updated: 12}, {Added: 40}, {Removed: 7}, {Added: 1 << 40}}
	for name, fn := range map[string]func(){
		"AppendStaged":  func() { buf = AppendStaged(buf[:0], 1<<20) },
		"AppendApplied": func() { buf = AppendApplied(buf[:0], 32, 1<<63, classes, sums) },
		"AppendRead":    func() { buf = AppendRead(buf[:0], "scc", 123456, 1<<40) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			f.Errorf("%s allocates %.0f times", name, n)
		}
	}
	seeds := map[string]string{
		"ok staged 1":  "staged",
		"ok aborted 0": "aborted",
		"ok applied 2 gen=11 kws=ΔO{+2 −0 ~0} rpq=ΔO{+1 −0 ~0} iso=ΔO{+1 −0 ~0} scc=ΔO{+3 −4 ~0}": "applied",
		"ok applied 1 gen=0": "applied",
		"ok scc 4 gen=7":     "read",
		"ok role=primary gen=7 walseq=0 disk=healthy classes=": "fields",
		"ok promoted term=2":    "promoted",
		"ok checkpoint epoch=2": "checkpoint",
		"ok bye":                "bye",
		"err overloaded: commit queue full; retry in 100ms": "error",
		"err proto: usage: query CLASS":                     "error",
		"err staged: commit failed: a: b":                   "error",
	}
	for line, kind := range seeds {
		if got := reencode(line)[kind]; got != line+"\n" {
			f.Fatalf("%q as %s re-encodes to %q", line, kind, got)
		}
		f.Add(line)
	}
	for _, line := range []string{"ok staged 01", "ok staged +1", "ok staged -1", "ok applied 1 gen=2 kws=ΔO{+1 −2}",
		"ok applied 1 gen=2  kws=ΔO{+1 −2 ~3}", "ok scc  4 gen=7", "ok a==b", "ok ", "err nope: x", "err proto:x",
		"ok promoted term=18446744073709551616", "ok applied 9223372036854775808 gen=1"} {
		if kinds := reencode(line); len(kinds) != 0 {
			f.Fatalf("%q is accepted as %v", line, kinds)
		}
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		for kind, again := range reencode(line) {
			if again != line+"\n" {
				t.Fatalf("%q parsed as %s re-encodes to %q", line, kind, again)
			}
		}
	})
}
