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
// (external merge sort). The format is a private, single-process scratch
// encoding — length-prefixed values, no versioning — because the files
// never outlive the query: the owning operator removes the whole
// directory on Close on every exit path.

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
	b, err := appendRow(sw.buf[:0], row)
	if err != nil {
		return err
	}
	sw.buf = b[:0]
	if _, err := sw.w.Write(b); err != nil {
		return fmt.Errorf("sqlengine: writing spill file: %w", err)
	}
	sw.rows++
	sw.bytes += int64(len(b))
	sw.sd.stats.SpillBytes += int64(len(b))
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

// readRow returns the next row or io.EOF at end of file.
func (sr *spillReader) readRow() (Row, error) {
	n, err := binary.ReadUvarint(sr.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("sqlengine: reading spill file: %w", err)
	}
	row := make(Row, n)
	for i := range row {
		if row[i], err = readCell(sr.r, &sr.scratch); err != nil {
			return nil, err
		}
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
