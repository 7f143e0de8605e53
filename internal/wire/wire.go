package wire

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"incgraph"
)

// Each Append function appends one whole reply line, newline included, and
// allocates nothing when b has room. Each Parse function reads one line
// without its newline and accepts only what its Append function writes:
// numbers are canonical decimals, fields are separated by one space.

// Category is an error reply's category.
type Category string

// The error categories, a closed set (see the package documentation for
// the recovery action each implies).
const (
	Overloaded Category = "overloaded"
	Disk       Category = "disk"
	Fenced     Category = "fenced"
	Staged     Category = "staged"
	Idle       Category = "idle"
	Proto      Category = "proto"
)

var categories = []Category{Overloaded, Disk, Fenced, Staged, Idle, Proto}

// Error is an error reply, "err CATEGORY: detail".
type Error struct {
	Category Category
	Detail   string
}

// Error returns the reply line.
func (e *Error) Error() string { return "err " + string(e.Category) + ": " + e.Detail }

// Retryable reports whether err is an error reply after which nothing has
// changed and the same request may succeed after the hinted delay: an
// overloaded or disk reply. A staged batch survives either.
func Retryable(err error) bool {
	var e *Error
	return errors.As(err, &e) && (e.Category == Overloaded || e.Category == Disk)
}

// AppendError appends "err CATEGORY: detail".
func AppendError(b []byte, c Category, detail string) []byte {
	return append(append(append(append(append(b, "err "...), c...), ": "...), detail...), '\n')
}

// ParseError reads an error reply.
func ParseError(line string) (*Error, error) {
	rest, ok := strings.CutPrefix(line, "err ")
	c, detail, cut := strings.Cut(rest, ": ")
	if !ok || !cut || !slices.Contains(categories, Category(c)) {
		return nil, malformed(line)
	}
	return &Error{Category(c), detail}, nil
}

// AppendStaged appends the stage ack, "ok staged N": n updates are staged.
func AppendStaged(b []byte, n int) []byte { return appendNum(b, "ok staged ", uint64(n)) }

// ParseStaged reads a stage ack.
func ParseStaged(line string) (int, error) { return parse[int](line, "ok staged ") }

// AppendAborted appends the abort ack, "ok aborted N": n staged updates
// were dropped.
func AppendAborted(b []byte, n int) []byte { return appendNum(b, "ok aborted ", uint64(n)) }

// ParseAborted reads an abort ack.
func ParseAborted(line string) (int, error) { return parse[int](line, "ok aborted ") }

// AppendPromoted appends the promote ack, "ok promoted term=T".
func AppendPromoted(b []byte, term uint64) []byte { return appendNum(b, "ok promoted term=", term) }

// ParsePromoted reads a promote ack.
func ParsePromoted(line string) (uint64, error) { return parse[uint64](line, "ok promoted term=") }

// AppendCheckpoint appends the checkpoint ack, "ok checkpoint epoch=E".
func AppendCheckpoint(b []byte, epoch uint64) []byte {
	return appendNum(b, "ok checkpoint epoch=", epoch)
}

// ParseCheckpoint reads a checkpoint ack.
func ParseCheckpoint(line string) (uint64, error) { return parse[uint64](line, "ok checkpoint epoch=") }

// AppendBye appends the quit ack, "ok bye".
func AppendBye(b []byte) []byte { return append(b, "ok bye\n"...) }

// ParseBye reads a quit ack.
func ParseBye(line string) error {
	if line != "ok bye" {
		return malformed(line)
	}
	return nil
}

// Applied is a commit ack: N updates applied, the generation Gen they
// produced, and per standing query, in attach order, its class and |ΔO|.
type Applied struct {
	N       int
	Gen     uint64
	Classes []string
	Deltas  []incgraph.DeltaSummary
}

// AppendApplied appends the commit ack, "ok applied N gen=G", then
// " CLASS=ΔO{+a −b ~c}" per class and its summary.
func AppendApplied(b []byte, n int, gen uint64, classes []string, deltas []incgraph.DeltaSummary) []byte {
	b = strconv.AppendUint(append(b, "ok applied "...), uint64(n), 10)
	b = strconv.AppendUint(append(b, " gen="...), gen, 10)
	for i, class := range classes {
		b = strconv.AppendUint(append(append(append(b, ' '), class...), "=ΔO{+"...), uint64(deltas[i].Added), 10)
		b = strconv.AppendUint(append(b, " −"...), uint64(deltas[i].Removed), 10)
		b = strconv.AppendUint(append(b, " ~"...), uint64(deltas[i].Updated), 10)
		b = append(b, '}')
	}
	return append(b, '\n')
}

// ParseApplied reads a commit ack.
func ParseApplied(line string) (Applied, error) {
	t := strings.Split(line, " ")
	if len(t) < 4 || (len(t)-4)%3 != 0 || t[0] != "ok" || t[1] != "applied" {
		return Applied{}, malformed(line)
	}
	n, ok1 := num[int](t[2], "", "")
	gen, ok2 := num[uint64](t[3], "gen=", "")
	a, ok := Applied{N: n, Gen: gen}, ok1 && ok2
	for t = t[4:]; ok && len(t) > 0; t = t[3:] {
		class, added, cut := strings.Cut(t[0], "=ΔO{+")
		var d incgraph.DeltaSummary
		var ok3 bool
		d.Added, ok1 = num[int](added, "", "")
		d.Removed, ok2 = num[int](t[1], "−", "")
		d.Updated, ok3 = num[int](t[2], "~", "}")
		ok = cut && class != "" && ok1 && ok2 && ok3
		a.Classes, a.Deltas = append(a.Classes, class), append(a.Deltas, d)
	}
	if !ok {
		return Applied{}, malformed(line)
	}
	return a, nil
}

// Read is a read header: the class, its answer's size, and the generation
// of the view it was read from.
type Read struct {
	Class string
	Size  int
	Gen   uint64
}

// AppendRead appends a read header, "ok CLASS SIZE gen=G".
func AppendRead(b []byte, class string, size int, gen uint64) []byte {
	b = strconv.AppendUint(append(append(append(b, "ok "...), class...), ' '), uint64(size), 10)
	return append(strconv.AppendUint(append(b, " gen="...), gen, 10), '\n')
}

// ParseRead reads a read header.
func ParseRead(line string) (Read, error) {
	t := strings.Split(line, " ")
	if len(t) != 4 || t[0] != "ok" || t[1] == "" {
		return Read{}, malformed(line)
	}
	size, ok1 := num[int](t[2], "", "")
	gen, ok2 := num[uint64](t[3], "gen=", "")
	if !ok1 || !ok2 {
		return Read{}, malformed(line)
	}
	return Read{t[1], size, gen}, nil
}

// DumpEnd is the line that ends an answer's rows.
const DumpEnd = ".\n"

// Field is one key=value field of a stat or health reply.
type Field struct{ Key, Value string }

// Fields are a stat or health reply's fields, in order.
type Fields []Field

// Add appends a field per key and value of kv, which alternates them; a
// value is written as fmt.Sprint writes it.
func (f *Fields) Add(kv ...any) {
	for i := 0; i+1 < len(kv); i += 2 {
		*f = append(*f, Field{kv[i].(string), fmt.Sprint(kv[i+1])})
	}
}

// Get returns the value of key.
func (f Fields) Get(key string) (string, bool) {
	i := slices.IndexFunc(f, func(fd Field) bool { return fd.Key == key })
	if i < 0 {
		return "", false
	}
	return f[i].Value, true
}

// Uint returns the value of key as a number.
func (f Fields) Uint(key string) (uint64, error) {
	v, _ := f.Get(key)
	n, ok := num[uint64](v, "", "")
	if !ok {
		return 0, fmt.Errorf("wire: no number in field %s=%s", key, v)
	}
	return n, nil
}

// AppendFields appends a stat or health reply: "ok", then " key=value"
// per field.
func AppendFields(b []byte, f Fields) []byte {
	b = append(b, "ok"...)
	for _, fd := range f {
		b = append(append(append(append(b, ' '), fd.Key...), '='), fd.Value...)
	}
	return append(b, '\n')
}

// ParseFields reads a stat or health reply. A key is not empty, and a
// value holds no "=".
func ParseFields(line string) (Fields, error) {
	rest, ok := strings.CutPrefix(line, "ok")
	var f Fields
	for _, field := range strings.Split(rest, " ")[1:] {
		k, v, cut := strings.Cut(field, "=")
		ok = ok && cut && k != "" && !strings.Contains(v, "=")
		f = append(f, Field{k, v})
	}
	if !ok || rest != "" && rest[0] != ' ' {
		return nil, malformed(line)
	}
	return f, nil
}

func appendNum(b []byte, prefix string, n uint64) []byte {
	return append(strconv.AppendUint(append(b, prefix...), n, 10), '\n')
}

// parse reads line as prefix and a number.
func parse[T int | uint64](line, prefix string) (T, error) {
	n, ok := num[T](line, prefix, "")
	if !ok {
		return 0, malformed(line)
	}
	return n, nil
}

// num reads s as prefix, a canonical decimal (no sign, no leading zero)
// that fits T, and suffix.
func num[T int | uint64](s, prefix, suffix string) (T, bool) {
	s, ok1 := strings.CutPrefix(s, prefix)
	s, ok2 := strings.CutSuffix(s, suffix)
	n, err := strconv.ParseUint(s, 10, 64)
	return T(n), ok1 && ok2 && err == nil && T(n) >= 0 && (s[0] != '0' || len(s) == 1)
}

func malformed(line string) error { return fmt.Errorf("wire: malformed reply %q", line) }
