package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/buffer"
)

// deltaPage is a 1 KB logical page plus a 64-byte checksum trailer, the
// shape the durable store logs.
const deltaPage = 1024 + 64

// runs decodes a delta payload into [off, end) pairs.
func runs(t *testing.T, payload []byte) [][2]int {
	t.Helper()
	var out [][2]int
	for off := 0; off < len(payload); {
		at := int(binary.LittleEndian.Uint32(payload[off:]))
		n := int(binary.LittleEndian.Uint32(payload[off+4:]))
		out = append(out, [2]int{at, at + n})
		off += runHeader + n
	}
	return out
}

// TestEncodeDeltaCases pins the encoder on the edge cases: an unchanged
// page, one byte, the page's first and last byte, the trailer, gaps just
// inside and just past the merge distance, and a whole-page rewrite
// that falls back to a full image. Every delta applies back to the new
// image exactly.
func TestEncodeDeltaCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, deltaPage)
	rng.Read(base)
	set := func(offs ...int) []byte {
		img := append([]byte(nil), base...)
		for _, o := range offs {
			img[o] ^= 0x5A
		}
		return img
	}
	trailer := append([]byte(nil), base...)
	rng.Read(trailer[deltaPage-64:])
	whole := make([]byte, deltaPage)
	rng.Read(whole)
	for _, c := range []struct {
		name string
		img  []byte
		want [][2]int // nil: unchanged; ok=false when want is {{-1, -1}}
	}{
		{"unchanged", set(), nil},
		{"one byte", set(500), [][2]int{{500, 501}}},
		{"page start", set(0), [][2]int{{0, 1}}},
		{"page end", set(deltaPage - 1), [][2]int{{deltaPage - 1, deltaPage}}},
		{"start and end", set(0, deltaPage-1), [][2]int{{0, 1}, {deltaPage - 1, deltaPage}}},
		{"trailer", trailer, [][2]int{{deltaPage - 64, deltaPage}}},
		{"gap of 8 merges", set(100, 109), [][2]int{{100, 110}}},
		{"gap of 9 splits", set(100, 110), [][2]int{{100, 101}, {110, 111}}},
		{"whole page", whole, [][2]int{{-1, -1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			payload, ok := EncodeDelta(nil, base, c.img, deltaPage/2)
			if c.want != nil && c.want[0][0] == -1 {
				if ok {
					t.Fatalf("whole-page rewrite encoded as a %d-byte delta", len(payload))
				}
				return
			}
			if !ok {
				t.Fatal("delta refused")
			}
			got := runs(t, payload)
			if len(got) != len(c.want) {
				t.Fatalf("runs %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("runs %v, want %v", got, c.want)
				}
			}
			if len(payload) == 0 {
				return
			}
			page := append([]byte(nil), base...)
			if err := ApplyDelta(page, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(page, c.img) {
				t.Fatal("applied delta differs from the new image")
			}
		})
	}
}

// TestDeltaReplayMatchesImages is the property the durable store rests
// on: a random history of page mutations, logged the way the store logs
// them (delta, full image past half a page, nothing when unchanged),
// recovers byte-identical to the same history logged as full images.
func TestDeltaReplayMatchesImages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mutations := []func(p []byte){
		func(p []byte) {}, // no change
		func(p []byte) { p[rng.Intn(len(p))] ^= 0xFF },                   // one byte
		func(p []byte) { p[0]++ },                                        // page start
		func(p []byte) { p[len(p)-1]++ },                                 // page end
		func(p []byte) { rng.Read(p[len(p)-64:]) },                       // the trailer
		func(p []byte) { rng.Read(p) },                                   // the whole page
		func(p []byte) { o := rng.Intn(800); copy(p[o+8:o+200], p[o:]) }, // a node's tail shifts
		func(p []byte) {
			for i := 0; i < 6; i++ {
				p[rng.Intn(len(p))] = byte(rng.Intn(256))
			}
		},
	}
	open := func(dir string) *Log {
		res, err := Recover(dir, applyMap(map[uint32][]byte{}))
		if err != nil {
			t.Fatal(err)
		}
		l, err := Start(dir, res, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	deltaDir, imageDir := t.TempDir(), t.TempDir()
	dl, il := open(deltaDir), open(imageDir)
	last := map[uint32][]byte{}
	for pid := uint32(1); pid <= 4; pid++ {
		img := make([]byte, deltaPage)
		rng.Read(img)
		dl.AppendPage(pid, img)
		il.AppendPage(pid, img)
		last[pid] = img
	}
	kinds := map[string]int{}
	for step := 1; step <= 600; step++ {
		pid := uint32(rng.Intn(4)) + 1
		img := append([]byte(nil), last[pid]...)
		mutations[rng.Intn(len(mutations))](img)
		payload, ok := EncodeDelta(nil, last[pid], img, deltaPage/2)
		var err error
		switch {
		case !ok:
			kinds["image"]++
			_, err = dl.AppendPage(pid, img)
		case len(payload) == 0:
			kinds["unchanged"]++
		default:
			kinds["delta"]++
			_, err = dl.AppendPageDelta(pid, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := il.AppendPage(pid, img); err != nil {
			t.Fatal(err)
		}
		last[pid] = img
		if step%9 == 0 || step == 600 {
			dl.AppendCommit(uint64(step), nil)
			il.AppendCommit(uint64(step), nil)
		}
	}
	if kinds["image"] == 0 || kinds["delta"] == 0 || kinds["unchanged"] == 0 {
		t.Fatalf("history did not cover every record choice: %v", kinds)
	}
	dl.Close()
	il.Close()

	fromDeltas, fromImages := map[uint32][]byte{}, map[uint32][]byte{}
	if _, err := Recover(deltaDir, applyMap(fromDeltas)); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(imageDir, applyMap(fromImages)); err != nil {
		t.Fatal(err)
	}
	for pid, want := range last {
		if !bytes.Equal(fromDeltas[pid], fromImages[pid]) || !bytes.Equal(fromDeltas[pid], want) {
			t.Fatalf("page %d: delta replay differs from image replay", pid)
		}
	}
}

// TestApplyDeltaRejectsMalformed: every malformed payload is typed
// ErrWALCorrupt and leaves the page untouched.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	run := func(at, n uint32, data []byte) []byte {
		var b [runHeader]byte
		binary.LittleEndian.PutUint32(b[0:], at)
		binary.LittleEndian.PutUint32(b[4:], n)
		return append(b[:], data...)
	}
	good := run(4, 2, []byte{1, 2})
	for name, payload := range map[string][]byte{
		"empty":          nil,
		"short header":   good[:5],
		"truncated run":  good[:len(good)-1],
		"empty run":      run(4, 0, nil),
		"past the end":   run(15, 2, []byte{1, 2}),
		"huge offset":    run(1<<32-1, 2, []byte{1, 2}),
		"overlapping":    append(append([]byte(nil), good...), run(5, 1, []byte{9})...),
		"out of order":   append(append([]byte(nil), good...), run(0, 1, []byte{9})...),
		"trailing bytes": append(append([]byte(nil), good...), 1, 2, 3),
	} {
		page := make([]byte, 16)
		if err := ApplyDelta(page, payload); !errors.Is(err, buffer.ErrWALCorrupt) {
			t.Errorf("%s: got %v", name, err)
		}
		if !bytes.Equal(page, make([]byte, 16)) {
			t.Errorf("%s: page modified by a rejected delta", name)
		}
	}
	page := make([]byte, 16)
	if err := ApplyDelta(page, good); err != nil || page[4] != 1 || page[5] != 2 {
		t.Fatalf("well-formed delta: %v %v", err, page)
	}
}
