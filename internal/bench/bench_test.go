package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyCfg keeps harness self-tests fast: small graphs, few points.
var tinyCfg = Config{Scale: 0.05, Seed: 42, MaxPoints: 2}

func TestFiguresList(t *testing.T) {
	ids := Figures()
	if len(ids) != 21 { // 16 panels + unit + opt + ablation + store + cluster
		t.Fatalf("experiments = %v", ids)
	}
	for _, want := range []string{"8a", "8p", "unit", "opt", "ablation", "store", "cluster"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing experiment %s in %v", want, ids)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("9z", tinyCfg); err == nil {
		t.Fatalf("unknown id accepted")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test skipped in -short mode")
	}
	for _, id := range Figures() {
		res, err := Run(id, tinyCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.X) == 0 || len(res.Series) == 0 {
			t.Fatalf("%s: degenerate result %+v", id, res)
		}
		for _, s := range res.Series {
			if len(s.Seconds) != len(res.X) {
				t.Fatalf("%s: series %s has %d points for %d x-values", id, s.Name, len(s.Seconds), len(res.X))
			}
			for _, v := range s.Seconds {
				if v < 0 {
					t.Fatalf("%s: negative time in %s", id, s.Name)
				}
			}
		}
		var buf bytes.Buffer
		if err := res.Format(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), res.ID) {
			t.Fatalf("%s: formatted output missing id", id)
		}
	}
}

func TestVaryDeltaSeriesNames(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test skipped in -short mode")
	}
	res, err := Run("8c", tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"IncSCC", "IncSCCn", "Tarjan", "DynSCC"}
	if len(res.Series) != len(want) {
		t.Fatalf("series = %+v", res.Series)
	}
	for i, s := range res.Series {
		if s.Name != want[i] {
			t.Fatalf("series %d = %s, want %s", i, s.Name, want[i])
		}
	}
}
