package fault

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/buffer"
)

// TrailerSize is the per-page integrity trailer, carved off the end of
// the physical page. It is one cache line (memsim.LineSize) so that the
// logical page size exposed to the pool stays a multiple of the line
// size, which the simulated address space requires.
const TrailerSize = 64

// trailerMagic marks a page as checksummed ("FPBT").
const trailerMagic = 0x46504254

// castagnoli is the CRC32-C polynomial table (the checksum used by
// iSCSI, ext4 metadata, and most modern storage engines).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumStore is a page-integrity decorator over buffer.Store. Every
// page written through it carries a trailer:
//
//	[logical bytes | crc32c(logical) u32 | magic u32 | version u64 | zero padding]
//	 <- PageSize ->  <------------------ TrailerSize = 64 ------------------>
//
// The CRC is computed over the logical bytes on write and verified on
// every read of a page this store has written; the padding must read
// back as zeros, so a single flipped bit anywhere in the physical page
// is detected.
//
// The version is a per-page write counter and closes the hole a CRC
// alone leaves open: a torn write whose tear point lies before the first
// changed byte leaves the complete, internally consistent, correctly
// checksummed OLD page on the media — a lost update, not a garbled one.
// Because the version lives in the trailer (the tail of the physical
// page) and increments on every write, a stale page always carries a
// stale version and is rejected. The in-memory expected-version map
// stands in for the page-LSN bookkeeping a real system's recovery log
// provides.
//
// A mismatch of any trailer field surfaces as buffer.ErrCorruptPage
// wrapping the page ID; the data is NOT copied to the caller.
//
// Pages never written through this store (fresh extents) are exempt
// from verification and read back as logical zeros, matching MemStore
// semantics.
//
// Locking. Reads never share a buffer and hold no lock across the inner
// read that another read would wait for: each takes a physical-page
// buffer of its own from readBufs. The stateless store's ReadPage takes
// no lock at all (it consults nothing but the bytes it read); the
// stateful store's holds mu shared, so that reads overlap each other
// but none can straddle a WritePage — which holds mu exclusively from
// the inner write to the map update — and compare new media bytes with
// the old expected version.
type ChecksumStore struct {
	// mu guards the write-side scratch buffer and the version/written
	// maps (single-threaded runs take it uncontended).
	mu      sync.RWMutex
	inner   buffer.Store
	logical int
	scratch []byte
	// readBufs recycles the physical-page buffers (*[]byte) reads verify
	// in, so a miss allocates nothing once the pool is warm.
	readBufs sync.Pool
	// version holds the expected (last successfully written) version of
	// each page. Like `written`, it is in-memory metadata, standing in
	// for what a real system recovers from its log.
	version map[uint32]uint64
	// written tracks which pages carry a trailer. It is in-memory state,
	// standing in for the "formatted" metadata a real system keeps.
	written map[uint32]bool
	// stateless drops the version/written map checks on reads: pages
	// are classified by their trailer alone (magic present → verify
	// CRC + padding; absent → must be all zeros, i.e. a fresh extent).
	// Durable stacks need this because the maps do not survive a
	// restart — there, lost-update (stale-complete-page) detection is
	// the WAL redo replay's job, not the trailer's. See DESIGN.md §12.
	stateless bool
}

// NewChecksumStore wraps inner, reserving TrailerSize bytes of each
// physical page for the trailer. The inner page size must leave room
// for at least one logical cache line.
func NewChecksumStore(inner buffer.Store) *ChecksumStore {
	if inner.PageSize() <= 2*TrailerSize {
		// Programmer invariant, deliberately kept as a panic: page size
		// is static configuration (facade options, harness params),
		// never data-dependent.
		panic("fault: page too small for a checksum trailer")
	}
	s := &ChecksumStore{
		inner:   inner,
		logical: inner.PageSize() - TrailerSize,
		scratch: make([]byte, inner.PageSize()),
		version: make(map[uint32]uint64),
		written: make(map[uint32]bool),
	}
	s.readBufs.New = func() any {
		b := make([]byte, inner.PageSize())
		return &b
	}
	return s
}

// NewStatelessChecksumStore wraps inner like NewChecksumStore but
// verifies pages from their trailer alone, with no in-memory
// expected-version or written-page maps — the variant a durable store
// needs, since those maps cannot survive a restart while the pages do.
func NewStatelessChecksumStore(inner buffer.Store) *ChecksumStore {
	s := NewChecksumStore(inner)
	s.stateless = true
	return s
}

// PageSize implements buffer.Store: the logical size the pool sees.
func (s *ChecksumStore) PageSize() int { return s.logical }

// WritePage implements buffer.Store: append the trailer and write the
// physical page.
func (s *ChecksumStore) WritePage(pid uint32, src []byte, now uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.version[pid] + 1
	copy(s.scratch[:s.logical], src)
	binary.LittleEndian.PutUint32(s.scratch[s.logical:], crc32.Checksum(s.scratch[:s.logical], castagnoli))
	binary.LittleEndian.PutUint32(s.scratch[s.logical+4:], trailerMagic)
	binary.LittleEndian.PutUint64(s.scratch[s.logical+8:], v)
	for i := s.logical + 16; i < len(s.scratch); i++ {
		s.scratch[i] = 0
	}
	done, err := s.inner.WritePage(pid, s.scratch, now)
	if err != nil {
		// The media was not updated (failed writes inject before the
		// device): the old version remains the expected one, so a retry
		// reuses v and a read meanwhile still accepts the old page.
		return done, err
	}
	s.version[pid] = v
	s.written[pid] = true
	return done, nil
}

// ReadPage implements buffer.Store: read the physical page and verify
// the trailer before releasing the data to the caller.
func (s *ChecksumStore) ReadPage(pid uint32, dst []byte, now uint64) (uint64, error) {
	if !s.stateless {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	bp := s.readBufs.Get().(*[]byte)
	defer s.readBufs.Put(bp)
	phys := *bp
	done, err := s.inner.ReadPage(pid, phys, now)
	if err != nil {
		return done, err
	}
	magic := binary.LittleEndian.Uint32(phys[s.logical+4:])
	if s.stateless {
		if magic != trailerMagic {
			// No trailer: only an all-zero page (a fresh extent) is
			// acceptable — garbage that garbled the magic must not be
			// silently served as an empty page.
			for i, b := range phys {
				if b != 0 {
					return done, &buffer.PageError{PID: pid, Op: "read",
						Err: fmt.Errorf("unchecksummed page with nonzero byte at %d: %w", i, buffer.ErrCorruptPage)}
				}
			}
			copy(dst, phys[:s.logical])
			return done, nil
		}
	} else if !s.written[pid] {
		// Fresh extent: no trailer to verify, reads as zeros.
		copy(dst, phys[:s.logical])
		return done, nil
	}
	want := binary.LittleEndian.Uint32(phys[s.logical:])
	version := binary.LittleEndian.Uint64(phys[s.logical+8:])
	ok := magic == trailerMagic &&
		(s.stateless || version == s.version[pid]) &&
		crc32.Checksum(phys[:s.logical], castagnoli) == want
	for i := s.logical + 16; ok && i < len(phys); i++ {
		ok = phys[i] == 0
	}
	if !ok {
		return done, &buffer.PageError{PID: pid, Op: "read", Err: buffer.ErrCorruptPage}
	}
	copy(dst, phys[:s.logical])
	return done, nil
}

var _ buffer.Store = (*ChecksumStore)(nil)
