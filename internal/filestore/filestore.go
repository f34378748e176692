// Package filestore implements the durable page store: an OS-file
// page store (FileStore) plus the Durable coordinator that pairs it
// with the write-ahead log so that the page file holds the last
// checkpoint's state plus pages no durable state references yet (the
// WAL rule, enforced structurally — see DESIGN.md §12).
package filestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/wal"
)

// fileMagic identifies a page file ("FPPF").
const fileMagic = 0x46505046

// fileVersion is the page-file format version.
const fileVersion = 1

// headerBlock reserves the first bytes of the file for the header, so
// page offsets stay page-aligned regardless of page size.
const headerBlock = 4096

// FileStore is a buffer.Store backed by one OS page file: positional
// reads and writes at pid*pageSize past the header block, fsync on
// demand. Reads past the end of the file are fresh extents and return
// zeros, matching MemStore semantics. It composes under the existing
// decorators — fault.Store injects torn writes and bit flips at this
// layer through PeekPage, and ChecksumStore's trailer rides inside the
// physical page.
//
// FileStore implements no durability ordering of its own; Durable
// ensures every write reaching it is already redo-protected.
type FileStore struct {
	f        *os.File
	path     string
	pageSize int
	noFsync  bool

	reads        atomic.Uint64
	writes       atomic.Uint64
	fsyncs       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
}

// OpenFileStore opens or creates the page file at path with the given
// physical page size. An existing file's header must agree on the page
// size — a mismatch is a configuration error, reported before any page
// is interpreted. noFsync is the test-harness knob shared with the WAL
// (crash simulation is truncation-based; accounting still runs).
func OpenFileStore(path string, pageSize int, noFsync bool) (*FileStore, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("filestore: invalid page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [16]byte
	if st.Size() == 0 {
		binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
		binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(pageSize))
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, err
		}
		// Make the header and the file's directory entry durable now:
		// a WAL checkpoint written later asserts the page file is
		// consistent, which is hollow if a power loss can still unwind
		// the file's creation (the entry lives in the directory's own
		// blocks, which fsyncing the file does not touch).
		if !noFsync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
			if err := wal.SyncDir(filepath.Dir(path)); err != nil {
				f.Close()
				return nil, err
			}
		}
	} else {
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("filestore: unreadable header: %w", err)
		}
		if m := binary.LittleEndian.Uint32(hdr[0:]); m != fileMagic {
			f.Close()
			return nil, fmt.Errorf("filestore: %s is not a page file (magic %#x)", path, m)
		}
		if v := binary.LittleEndian.Uint32(hdr[4:]); v != fileVersion {
			f.Close()
			return nil, fmt.Errorf("filestore: %s has format version %d, want %d", path, v, fileVersion)
		}
		if ps := binary.LittleEndian.Uint32(hdr[8:]); int(ps) != pageSize {
			f.Close()
			return nil, fmt.Errorf("filestore: %s was created with %d-byte pages, opened with %d", path, ps, pageSize)
		}
	}
	return &FileStore{f: f, path: path, pageSize: pageSize, noFsync: noFsync}, nil
}

// PageSize implements buffer.Store.
func (s *FileStore) PageSize() int { return s.pageSize }

// Pages reports how many pages the file spans: no pid at or above it
// has ever been written (a torn tail page counts as written).
func (s *FileStore) Pages() (uint32, error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	body := st.Size() - headerBlock
	if body <= 0 {
		return 0, nil
	}
	return uint32((body + int64(s.pageSize) - 1) / int64(s.pageSize)), nil
}

// offset maps a page ID to its file position.
func (s *FileStore) offset(pid uint32) int64 {
	return headerBlock + int64(pid)*int64(s.pageSize)
}

// ReadPage implements buffer.Store: positional read; a read past the
// end of the file is a fresh extent and yields zeros. Real I/O failures
// are permanent — the kernel already absorbed anything transient.
func (s *FileStore) ReadPage(pid uint32, dst []byte, now uint64) (uint64, error) {
	n, err := s.f.ReadAt(dst[:s.pageSize], s.offset(pid))
	s.reads.Add(1)
	s.bytesRead.Add(uint64(n))
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		for i := n; i < s.pageSize; i++ {
			dst[i] = 0
		}
		return now, nil
	}
	if err != nil {
		return now, &buffer.PageError{PID: pid, Op: "read",
			Err: fmt.Errorf("%v: %w", err, buffer.ErrPermanentIO)}
	}
	return now, nil
}

// WritePage implements buffer.Store: positional write of one full
// physical page. A partial write is typed ErrShortWrite — the on-disk
// page is in an undefined state and only WAL redo can be trusted.
func (s *FileStore) WritePage(pid uint32, src []byte, now uint64) (uint64, error) {
	n, err := s.f.WriteAt(src[:s.pageSize], s.offset(pid))
	s.writes.Add(1)
	s.bytesWritten.Add(uint64(n))
	if n < s.pageSize {
		return now, &buffer.PageError{PID: pid, Op: "write",
			Err: fmt.Errorf("wrote %d of %d bytes (%v): %w", n, s.pageSize, err, buffer.ErrShortWrite)}
	}
	if err != nil {
		return now, &buffer.PageError{PID: pid, Op: "write",
			Err: fmt.Errorf("%v: %w", err, buffer.ErrPermanentIO)}
	}
	return now, nil
}

// PeekPage lets the fault layer fetch the current on-media image for
// torn-write injection at the real-file layer. Fresh extents peek as
// zeros; an I/O failure reports no image.
func (s *FileStore) PeekPage(pid uint32, dst []byte) bool {
	n, err := s.f.ReadAt(dst[:s.pageSize], s.offset(pid))
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		for i := n; i < s.pageSize; i++ {
			dst[i] = 0
		}
		return true
	}
	return err == nil
}

// syncHook, when set, runs after every successful Sync (fsync elided
// or not). Tests use it to snapshot what a power loss would keep.
var syncHook func(*FileStore)

// Sync fsyncs the page file.
func (s *FileStore) Sync() error {
	s.fsyncs.Add(1)
	if !s.noFsync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	if syncHook != nil {
		syncHook(s)
	}
	return nil
}

// Close releases the file handle without flushing.
func (s *FileStore) Close() error { return s.f.Close() }

// Path reports the page file's location.
func (s *FileStore) Path() string { return s.path }

// RegisterMetrics exposes the store under the filestore.* namespace.
func (s *FileStore) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("filestore.reads", s.reads.Load)
	reg.Counter("filestore.writes", s.writes.Load)
	reg.Counter("filestore.fsyncs", s.fsyncs.Load)
	reg.Counter("filestore.bytes_read", s.bytesRead.Load)
	reg.Counter("filestore.bytes_written", s.bytesWritten.Load)
}

var _ buffer.Store = (*FileStore)(nil)
