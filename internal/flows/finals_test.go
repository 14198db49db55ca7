package flows

import (
	"bytes"
	"math"
	"testing"

	"aigtimer/internal/cell"
	"aigtimer/internal/shard"
)

// scaledLibrary returns the builtin library with every cell area
// multiplied by factor, round-tripped through its text form.
func scaledLibrary(t *testing.T, factor float64) *cell.Library {
	t.Helper()
	var buf bytes.Buffer
	if err := cell.WriteLibrary(&buf, cell.Builtin()); err != nil {
		t.Fatal(err)
	}
	lib, err := cell.ParseLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lib.Cells {
		c.AreaUM2 *= factor
	}
	buf.Reset()
	if err := cell.WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	if lib, err = cell.ParseLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	return lib
}

// checkFinals asserts that every point's ground-truth metrics are those
// of a fresh signoff of its best graph over lib, bit for bit.
func checkFinals(t *testing.T, label string, lib *cell.Library, rs []SuiteResult) {
	t.Helper()
	gt := NewGroundTruth(lib)
	for _, r := range rs {
		for i, p := range r.Points {
			m := gt.Evaluate(p.Result.Best)
			if math.Float64bits(p.TrueDelayPS) != math.Float64bits(m.DelayPS) ||
				math.Float64bits(p.TrueAreaUM2) != math.Float64bits(m.AreaUM2) {
				t.Fatalf("%s: entry %q point %d reports (%v ps, %v um2), signoff of its best graph gives (%v ps, %v um2)",
					label, r.Name, i, p.TrueDelayPS, p.TrueAreaUM2, m.DelayPS, m.AreaUM2)
			}
		}
	}
}

// TestSweepFinalsMatchSignoff pins what a sweep point reports as its
// ground-truth metrics: the signoff of its best graph over the sweep's
// library, whichever evaluator guided the run. It covers points guided
// by ground truth over the sweep's library, over another library, and
// by proxy metrics, in a local suite under the builtin and a scaled
// library, and the shippable entries through a sharded session and a
// hub session.
func TestSweepFinalsMatchSignoff(t *testing.T) {
	g := testAIG(71)
	cfg := shardTestSweepConfig(13)
	builtin, tripled := cell.Builtin(), scaledLibrary(t, 3)
	for _, tc := range []struct {
		name       string
		lib, other *cell.Library
	}{{"builtin", builtin, tripled}, {"tripled", tripled, builtin}} {
		lib := tc.lib
		shippable := []SuiteEntry{
			{Name: "gt", G: g, Eval: NewGroundTruth(lib)},
			{Name: "proxy", G: g, Eval: Proxy{}},
		}
		local, err := SweepSuite(append(shippable, SuiteEntry{Name: "gt-other", G: g, Eval: NewGroundTruth(tc.other)}), lib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkFinals(t, "local "+tc.name, lib, local)

		conns, wait := loopbackWorkers(2)
		sharded, _, err := SweepSuiteSharded(shippable, lib, cfg, ShardOptions{Conns: conns})
		if err != nil {
			t.Fatal(err)
		}
		wait()
		checkFinals(t, "sharded "+tc.name, lib, sharded)

		h := shard.NewHub(shard.HubOptions{Preseed: true, Logf: t.Logf})
		startHubWorker(h, "w0")
		hub, _, err := SweepSuiteSharded(shippable, lib, cfg, ShardOptions{HubConn: hubClientConn(h)})
		h.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkFinals(t, "hub "+tc.name, lib, hub)
	}
}
