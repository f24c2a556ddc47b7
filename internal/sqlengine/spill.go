package sqlengine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// spillWriter appends rows to one spill file, counting their bytes.
type spillWriter struct {
	sd    *spillDir
	f     *os.File
	w     *RecordWriter
	path  string
	bytes int64
}

func (sd *spillDir) newWriter(kind string) (*spillWriter, error) {
	sd.seq++
	path := filepath.Join(sd.dir, fmt.Sprintf("%s-%04d.spill", kind, sd.seq))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: creating spill file: %w", err)
	}
	return &spillWriter{sd: sd, f: f, w: NewRecordWriter(f), path: path}, nil
}

func (sw *spillWriter) writeRow(row Row) error {
	n, err := sw.w.WriteRow(row)
	if err != nil {
		return fmt.Errorf("sqlengine: writing spill file: %w", err)
	}
	sw.bytes += int64(n)
	sw.sd.stats.SpillBytes += int64(n)
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
	f *os.File
	r *RecordReader
}

func openSpill(path string) (*spillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: opening spill file: %w", err)
	}
	return &spillReader{f: f, r: NewRecordReader(f)}, nil
}

// readRow returns the next row, or io.EOF when the file ends on a record
// boundary.
func (sr *spillReader) readRow() (Row, error) {
	row, _, err := sr.r.ReadRow()
	return row, err
}

func (sr *spillReader) close() error {
	if sr == nil || sr.f == nil {
		return nil
	}
	err := sr.f.Close()
	sr.f = nil
	return err
}

// RecordWriter writes rows as records, uvarint(len) | frame row, through
// a buffer that Flush empties. A stream of records has no header or
// version, so it must not outlive the program that wrote it: spill files
// and the ETL's staging files are removed once read.
type RecordWriter struct {
	w   *bufio.Writer
	buf []byte
}

// NewRecordWriter returns a RecordWriter writing to w.
func NewRecordWriter(w io.Writer) *RecordWriter {
	return &RecordWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// WriteRow writes row as one record and returns the record's length in
// bytes.
func (rw *RecordWriter) WriteRow(row Row) (int, error) {
	rw.buf = appendFrameRow(rw.buf[:0], row)
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(rw.buf)))
	if _, err := rw.w.Write(hdr[:h]); err != nil {
		return 0, err
	}
	if _, err := rw.w.Write(rw.buf); err != nil {
		return 0, err
	}
	return h + len(rw.buf), nil
}

// Flush writes the buffered records out.
func (rw *RecordWriter) Flush() error { return rw.w.Flush() }

// RecordReader reads back the records a RecordWriter wrote.
type RecordReader struct {
	r       *bufio.Reader
	scratch []byte
}

// NewRecordReader returns a RecordReader reading from r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// ReadRow returns the next row and its record's length in bytes, or io.EOF
// when the input ends on a record boundary. A record cut short or garbled
// is an error, never a short row.
func (rr *RecordReader) ReadRow() (Row, int, error) {
	n, err := binary.ReadUvarint(rr.r)
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("sqlengine: reading row record: %w", err)
	}
	// The buffer grows as the record's bytes arrive, never by the length
	// prefix alone, which a corrupt file may make larger than memory.
	rec := rr.scratch[:0]
	for uint64(len(rec)) < n {
		chunk := int(min(n-uint64(len(rec)), 1<<20))
		rec = slices.Grow(rec, chunk)
		if _, err := io.ReadFull(rr.r, rec[len(rec):len(rec)+chunk]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, fmt.Errorf("sqlengine: reading row record: %w", err)
		}
		rec = rec[:len(rec)+chunk]
	}
	rr.scratch = rec
	row, rest, err := decodeFrameRow(rec)
	if err != nil {
		return nil, 0, err
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("sqlengine: corrupt row record: %d bytes after the row", len(rest))
	}
	var hdr [binary.MaxVarintLen64]byte // to measure the length prefix
	return row, binary.PutUvarint(hdr[:], n) + int(n), nil
}
