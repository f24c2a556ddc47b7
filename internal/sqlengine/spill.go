package sqlengine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Spill-file machinery for the streaming operators: when a buffering
// operator (hash-join build side, sort buffer) exceeds its byte budget
// it writes rows to temp files under a per-operator directory and reads
// them back partition by partition (Grace hash join) or run by run
// (external merge sort). Each record is one row of the row frame
// (frame.go) behind its byte length, uvarint(len) | frame row, so a file
// cut short is an error and never a short row. There is no frame header or
// version: the files never outlive the query, because the owning operator
// removes the whole directory on Close on every exit path.

// spillDir is the per-operator temp directory plus the shared telemetry
// sink. All files of one operator live under dir so cleanup is one
// RemoveAll, idempotent and safe after partial failures.
type spillDir struct {
	dir   string
	stats *StreamStats
	seq   int
}

func newSpillDir(parent string, stats *StreamStats) (*spillDir, error) {
	dir, err := os.MkdirTemp(parent, "gridrdb-spill-")
	if err != nil {
		return nil, fmt.Errorf("sqlengine: creating spill dir: %w", err)
	}
	if stats == nil {
		stats = &StreamStats{}
	}
	stats.Spilled = true
	return &spillDir{dir: dir, stats: stats}, nil
}

func (sd *spillDir) remove() error {
	if sd == nil || sd.dir == "" {
		return nil
	}
	err := os.RemoveAll(sd.dir)
	sd.dir = ""
	return err
}

// spillWriter appends encoded rows to one spill file.
type spillWriter struct {
	sd    *spillDir
	f     *os.File
	w     *bufio.Writer
	path  string
	rows  int64
	bytes int64
	buf   []byte
}

func (sd *spillDir) newWriter(kind string) (*spillWriter, error) {
	sd.seq++
	path := filepath.Join(sd.dir, fmt.Sprintf("%s-%04d.spill", kind, sd.seq))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: creating spill file: %w", err)
	}
	return &spillWriter{sd: sd, f: f, w: bufio.NewWriterSize(f, 1<<16), path: path}, nil
}

func (sw *spillWriter) writeRow(row Row) error {
	sw.buf = appendFrameRow(sw.buf[:0], row)
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(sw.buf)))
	if _, err := sw.w.Write(hdr[:h]); err != nil {
		return fmt.Errorf("sqlengine: writing spill file: %w", err)
	}
	if _, err := sw.w.Write(sw.buf); err != nil {
		return fmt.Errorf("sqlengine: writing spill file: %w", err)
	}
	n := int64(h + len(sw.buf))
	sw.rows++
	sw.bytes += n
	sw.sd.stats.SpillBytes += n
	return nil
}

// finish flushes the writer and leaves the file on disk for reading.
func (sw *spillWriter) finish() error {
	if err := sw.w.Flush(); err != nil {
		sw.f.Close()
		return fmt.Errorf("sqlengine: flushing spill file: %w", err)
	}
	return sw.f.Close()
}

// spillReader streams rows back from a finished spill file.
type spillReader struct {
	f       *os.File
	r       *bufio.Reader
	scratch []byte
}

func openSpill(path string) (*spillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: opening spill file: %w", err)
	}
	return &spillReader{f: f, r: bufio.NewReaderSize(f, 1<<16)}, nil
}

// readRow returns the next row, or io.EOF when the file ends on a record
// boundary. A record cut short or garbled is an error.
func (sr *spillReader) readRow() (Row, error) {
	n, err := binary.ReadUvarint(sr.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("sqlengine: reading spill file: %w", err)
	}
	if uint64(cap(sr.scratch)) < n {
		sr.scratch = make([]byte, n)
	}
	rec := sr.scratch[:n]
	if _, err := io.ReadFull(sr.r, rec); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("sqlengine: reading spill file: %w", err)
	}
	row, rest, err := decodeFrameRow(rec)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sqlengine: corrupt spill record: %d bytes after the row", len(rest))
	}
	return row, nil
}

func (sr *spillReader) close() error {
	if sr == nil || sr.f == nil {
		return nil
	}
	err := sr.f.Close()
	sr.f = nil
	return err
}
