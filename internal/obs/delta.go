package obs

import "time"

// Delta is the windowed view of two registry snapshots taken a known
// interval apart: per-counter increments and per-second rates, plus the
// derived serving signals the /delta endpoint reports — throughput,
// buffer hit ratio, fault pressure, and latch-protocol restart
// pressure. A frozen
// Snapshot answers "how much so far"; a Delta answers "how fast right
// now".
type Delta struct {
	// Seconds is the window length the rates are normalized over.
	Seconds float64 `json:"seconds"`
	// Counters holds cur − prev for every counter present in cur.
	// Counters that went backwards (a Reset inside the window) clamp
	// to zero rather than exporting a bogus huge rate.
	Counters map[string]uint64 `json:"counters"`
	// Rates is Counters normalized to per-second figures.
	Rates map[string]float64 `json:"rates"`

	// OpsPerSec is the summed tree.* operation rate: searches, inserts,
	// deletes, scans, reverse scans, and batches (batch = one op).
	OpsPerSec float64 `json:"ops_per_sec"`
	// BufferHitRatio is (hits + prefetch hits) / gets within the window
	// (0 when the window saw no gets).
	BufferHitRatio float64 `json:"buffer_hit_ratio"`
	// FaultsPerSec is the fault.injected rate (0 without a fault store).
	FaultsPerSec float64 `json:"faults_per_sec"`
	// RestartsPerSec is the latch.epoch_restarts rate: how often
	// cache-first readers lost an epoch race and restarted from the
	// root (0 outside concurrent serving mode).
	RestartsPerSec float64 `json:"restarts_per_sec"`
}

// opCounters are the tree.* series that sum into OpsPerSec.
var opCounters = []string{
	"tree.searches", "tree.inserts", "tree.deletes",
	"tree.scans", "tree.reverse_scans", "tree.batches",
}

// Diff computes the windowed delta from prev to cur over elapsed.
// A non-positive elapsed yields increments with zero rates.
func Diff(prev, cur Snapshot, elapsed time.Duration) Delta {
	d := Delta{
		Seconds:  elapsed.Seconds(),
		Counters: make(map[string]uint64, len(cur.Counters)),
		Rates:    make(map[string]float64, len(cur.Counters)),
	}
	persec := 0.0
	if d.Seconds > 0 {
		persec = 1 / d.Seconds
	}
	for name, v := range cur.Counters {
		var inc uint64
		if p := prev.Counters[name]; v > p {
			inc = v - p
		}
		d.Counters[name] = inc
		d.Rates[name] = float64(inc) * persec
	}
	for _, n := range opCounters {
		d.OpsPerSec += d.Rates[n]
	}
	if gets := d.Counters["buffer.gets"]; gets > 0 {
		d.BufferHitRatio = float64(d.Counters["buffer.hits"]+d.Counters["buffer.prefetch_hits"]) / float64(gets)
	}
	d.FaultsPerSec = d.Rates["fault.injected"]
	d.RestartsPerSec = d.Rates["latch.epoch_restarts"]
	return d
}
