package main

import (
	"fmt"
	"math/rand"

	fpbtree "repro"
)

// Key layout shared by every workload: the bulkloaded keys are the odd
// numbers 2i+1 (i < keys), so every even key is free for inserts and a
// search of an untouched even key must miss. The seed drives the tuple
// IDs and every op stream; the library sees only the generated keys.

const (
	opSearchHit  uint8 = iota // key is present: expect tidOf(key)
	opSearchMiss              // key is absent: expect not found
	opInsert
	opDelete // of one of the client's own earlier inserts: expect true
	opScan   // [key, key+2n]: holds exactly n+1 bulkloaded keys
	opTxn    // txnInserts fresh keys from index key, then Commit
)

// txnInserts is the size of one durable transaction; the crash check
// issues unackedInserts more after the last acknowledged Commit.
const (
	txnInserts     = 16
	unackedInserts = 64
)

type op struct {
	key  uint32
	n    uint16
	kind uint8
}

// spec is one workload at one scale. Op counts are per client per cell
// at refSeconds; -seconds scales them linearly.
type spec struct {
	name    string
	keys    int
	fill    float64
	pool    int
	clients int // 0: min(2, nproc)
	ops     int // per client per cell
	epochs  int // crash checks per cell; slices are epochs when > 1
	noFsync bool
	gen     func(g *gen, c int) []op
}

const refSeconds = 12

func specs(scale string) ([]spec, error) {
	full := []spec{
		{name: "point-fit", keys: 16_000_000, fill: 1.0, pool: 32768, ops: 2_000_000, epochs: 1, gen: genPointFit},
		{name: "mixed-contend", keys: 16_000_000, fill: 0.7, pool: 32768, ops: 1_200_000, epochs: 1, gen: genMixed},
		{name: "scan-spill", keys: 16_000_000, fill: 0.8, pool: 1280, ops: 140_000, epochs: 1, gen: genScanSpill},
		{name: "txn-durable", keys: 4_000_000, fill: 0.7, pool: 8192, clients: 1, ops: 1250, epochs: 5, gen: genTxn},
	}
	switch scale {
	case "full":
		return full, nil
	case "smoke":
		for i := range full {
			s := &full[i]
			s.pool = max(64, s.pool*50_000/s.keys)
			s.keys, s.ops, s.noFsync = 50_000, 10_000, true
			if s.epochs > 1 {
				s.ops = 40
			}
		}
		return full, nil
	}
	return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
}

// gen carries what the op generators share.
type gen struct {
	keys    uint32
	clients int
	ops     int
	seed    int64
	fresh   freshKeys
	used    []uint32 // fresh keys each client's stream consumed
}

// readOnly reports that no stream inserts, so a scan's count is exact.
func (g *gen) readOnly() bool {
	for _, u := range g.used {
		if u != 0 {
			return false
		}
	}
	return true
}

func (g *gen) rng(c int) *rand.Rand { return rand.New(rand.NewSource(g.seed*1000 + int64(c) + 1)) }

func bulkKey(i uint32) uint32 { return 2*i + 1 }

func tidOf(key uint32, seed int64) uint32 { return key*2654435761 + uint32(seed) }

// freshKeys hands client c its m-th never-used even key. Client c owns
// the even keys 2j with j ≡ c+1 (mod clients); m walks its slots with a
// stride coprime to their number, so the keys are distinct and spread
// over the whole range.
type freshKeys struct {
	clients, slots, stride, off uint32
}

func newFreshKeys(keys uint32, clients int, seed int64) freshKeys {
	f := freshKeys{clients: uint32(clients), slots: keys / uint32(clients)}
	r := rand.New(rand.NewSource(seed))
	f.off = uint32(r.Int63n(int64(f.slots)))
	f.stride = uint32(float64(f.slots)*0.618) | 1
	for gcd(f.stride, f.slots) != 1 {
		f.stride += 2
	}
	return f
}

func gcd(a, b uint32) uint32 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (f freshKeys) key(c int, m uint32) uint32 {
	slot := (uint64(f.off) + uint64(m)*uint64(f.stride)) % uint64(f.slots)
	return 2 * (1 + uint32(c) + f.clients*uint32(slot))
}

func bulkEntries(keys int, seed int64) []fpbtree.Entry {
	es := make([]fpbtree.Entry, keys)
	for i := range es {
		k := bulkKey(uint32(i))
		es[i] = fpbtree.Entry{Key: k, TID: tidOf(k, seed)}
	}
	return es
}

// genPointFit: 95 % searches of a present key, 5 % of an absent one.
func genPointFit(g *gen, c int) []op {
	r := g.rng(c)
	ops := make([]op, g.ops)
	for i := range ops {
		x := uint32(r.Int63n(int64(g.keys)))
		if r.Intn(100) < 5 {
			ops[i] = op{kind: opSearchMiss, key: 2 * (x + 1)}
		} else {
			ops[i] = op{kind: opSearchHit, key: bulkKey(x)}
		}
	}
	return ops
}

// genMixed: 70 % Search (one in seven re-reads an own live insert),
// 20 % Insert of a fresh own key, 5 % Delete of an own live insert,
// 5 % RangeScan of 100–200 keys.
func genMixed(g *gen, c int) []op {
	r := g.rng(c)
	ops := make([]op, g.ops)
	var live []uint32
	for i := range ops {
		x := uint32(r.Int63n(int64(g.keys)))
		switch p := r.Intn(100); {
		case p < 60 || (p < 70 && len(live) == 0):
			ops[i] = op{kind: opSearchHit, key: bulkKey(x)}
		case p < 70:
			ops[i] = op{kind: opSearchHit, key: live[r.Intn(len(live))]}
		case p < 90 || (p < 95 && len(live) == 0):
			k := g.fresh.key(c, g.used[c])
			g.used[c]++
			live = append(live, k)
			ops[i] = op{kind: opInsert, key: k}
		case p < 95:
			j := r.Intn(len(live))
			ops[i] = op{kind: opDelete, key: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			ops[i] = scanOp(g, x, 100+r.Intn(101))
		}
	}
	return ops
}

// genScanSpill: 80 % Search, four in five of them inside a hot tenth of
// the key space; 20 % RangeScan of about 1 000 keys. Read-only.
func genScanSpill(g *gen, c int) []op {
	r := g.rng(c)
	hot := g.keys / 10
	hotStart := uint32(rand.New(rand.NewSource(g.seed)).Int63n(int64(g.keys - hot)))
	ops := make([]op, g.ops)
	for i := range ops {
		x := uint32(r.Int63n(int64(g.keys)))
		switch p := r.Intn(100); {
		case p < 64:
			ops[i] = op{kind: opSearchHit, key: bulkKey(hotStart + x%hot)}
		case p < 80:
			ops[i] = op{kind: opSearchHit, key: bulkKey(x)}
		default:
			ops[i] = scanOp(g, x, 900+r.Intn(201))
		}
	}
	return ops
}

func scanOp(g *gen, start uint32, n int) op {
	n = min(n, int(g.keys)-1)
	start = min(start, g.keys-uint32(n)-1)
	return op{kind: opScan, key: bulkKey(start), n: uint16(n)}
}

// genTxn: every op is one transaction of fresh keys.
func genTxn(g *gen, c int) []op {
	ops := make([]op, g.ops)
	for i := range ops {
		ops[i] = op{kind: opTxn, key: g.used[c]}
		g.used[c] += txnInserts
	}
	return ops
}
