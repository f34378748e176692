package wal

import (
	"errors"
	"io"
	"os"
)

// RecoveryResult summarizes a redo scan: the durable point recovery
// landed on, what it replayed, and where the next log incarnation
// should start.
type RecoveryResult struct {
	// HadState is true when some segment held a valid checkpoint: the
	// directory carries a recoverable store (possibly an empty tree).
	HadState bool
	// Tag and Meta are the durable point recovered to — the payload of
	// the last complete, valid commit (or the anchoring checkpoint when
	// no commit followed it).
	Tag  uint64
	Meta []byte
	// PagesReplayed counts page records (images and deltas) handed to
	// apply; CommitsApplied counts the commit records that made them
	// durable.
	PagesReplayed  int
	CommitsApplied int
	// TailTruncated is true when the scan stopped at a damaged record —
	// the normal signature of a crash mid-append.
	TailTruncated bool
	// BaseSeq is the segment the scan anchored on (0 when none).
	BaseSeq uint64
	// NextLSN is the LSN the next incarnation should continue from.
	NextLSN uint64

	maxSeq uint64 // highest segment sequence present, valid or not
}

// Recover performs the ARIES-lite redo scan over dir's segments. It
// anchors on the newest segment whose leading record is a valid
// checkpoint (falling back one generation if the newest segment's
// checkpoint is torn), then replays that segment in order: page and
// page-delta records are buffered and handed to apply — kind, pid and
// payload, in append order — only when a complete, valid commit record
// follows them; the uncommitted tail is discarded. A payload aliases
// the segment read into memory, so apply must not modify it. Framing
// damage mid-segment ends the scan at the last durable point; it is
// recorded, not returned, because a torn tail is the expected artifact
// of a crash. Only apply errors and real I/O failures surface.
//
// Recover does not write anything: the caller syncs the page file it
// applied into, then calls Start, which seals recovery with a fresh
// checkpoint segment.
func Recover(dir string, apply func(kind RecordType, pid uint32, payload []byte) error) (RecoveryResult, error) {
	res := RecoveryResult{NextLSN: 1}
	segs, err := SegmentFiles(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return res, nil
		}
		return res, err
	}
	if len(segs) == 0 {
		return res, nil
	}
	res.maxSeq = segs[len(segs)-1].Seq

	// Anchor: newest segment that opens with a valid checkpoint.
	base := -1
	var data []byte
	for i := len(segs) - 1; i >= 0; i-- {
		b, err := os.ReadFile(segs[i].Path)
		if err != nil {
			return res, err
		}
		if rec, _, derr := DecodeRecord(b); derr == nil && rec.Type == RecCheckpoint {
			base, data = i, b
			break
		}
		// A segment without a sound leading checkpoint holds nothing
		// recoverable: the checkpoint is written and fsynced before any
		// other record enters the segment.
		res.TailTruncated = true
	}
	if base == -1 {
		return res, nil
	}
	res.BaseSeq = segs[base].Seq
	res.HadState = true

	var pending []Record
	off := 0
	for {
		leading := off == 0
		rec, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			if derr != io.EOF {
				res.TailTruncated = true
			}
			break
		}
		off += n
		if rec.LSN >= res.NextLSN {
			res.NextLSN = rec.LSN + 1
		}
		switch rec.Type {
		case RecPage, RecPageDelta:
			pending = append(pending, rec)
		case RecCommit, RecCheckpoint:
			if rec.Type == RecCheckpoint && !leading {
				// The format contract only ever places a checkpoint as a
				// segment's first record (it implies page-file consistency
				// no mid-segment record can promise). No writer produces
				// one elsewhere, so treat it as framing corruption and
				// stop at the last durable point rather than apply it.
				res.TailTruncated = true
				return res, nil
			}
			tag, meta, derr := decodePoint(rec.Payload)
			if derr != nil {
				res.TailTruncated = true
				return res, nil
			}
			for _, p := range pending {
				if err := apply(p.Type, p.PID, p.Payload); err != nil {
					return res, err
				}
				res.PagesReplayed++
			}
			pending = pending[:0]
			res.Tag, res.Meta = tag, append([]byte(nil), meta...)
			if rec.Type == RecCommit {
				res.CommitsApplied++
			}
		}
	}
	return res, nil
}
