package device

import (
	"fmt"
	"os"
	"time"
)

// FileDevice measures a real file (or block special file) with the wall
// clock, mapping the virtual-time Submit contract onto real sleeps: an IO
// submitted "at" a run-relative instant waits until that instant has passed
// on the wall clock, then executes.
//
// The paper's FlashIO tool used raw direct synchronous IO on Windows, which
// bypasses the host cache; the closest portable stdlib equivalent is
// pread/pwrite on an opened file with an fsync after every write, so a write
// is timed to the medium and not into the page cache. Reads still come
// through the page cache: a FileDevice measurement of a filesystem file
// characterizes the host as much as the medium; point it at a block special
// file (and accept cache interference) or use SimDevice for controlled
// experiments.
type FileDevice struct {
	f        *os.File
	name     string
	capacity int64

	start time.Time
	buf   []byte
}

// OpenFileDevice opens path for read/write benchmarking, creating it with
// the given size when it does not exist. For an existing file or block
// special, size 0 means "use the current size".
func OpenFileDevice(path string, size int64) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("device: stat %s: %w", path, err)
	}
	capacity := st.Size()
	if size > 0 && capacity < size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("device: grow %s to %d: %w", path, size, err)
		}
		capacity = size
	}
	if capacity <= 0 {
		f.Close()
		return nil, fmt.Errorf("device: %s has zero size; pass an explicit size", path)
	}
	return &FileDevice{f: f, name: path, capacity: capacity, start: time.Now()}, nil //uflint:allow wallclock — FileDevice drives real hardware; its clock is the wall clock
}

// Capacity returns the file size.
func (d *FileDevice) Capacity() int64 { return d.capacity }

// SectorSize returns 512.
func (d *FileDevice) SectorSize() int { return 512 }

// Name returns the file path.
func (d *FileDevice) Name() string { return d.name }

// Close closes the underlying file.
func (d *FileDevice) Close() error {
	if d.f == nil {
		return ErrClosed
	}
	err := d.f.Close()
	d.f = nil
	return err
}

// SubmitBatch executes the IOs one at a time through SerialSubmitBatch (see
// Device.SubmitBatch for the done encoding).
func (d *FileDevice) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	return SerialSubmitBatch(d, at, ios, done)
}

// Submit waits until run-relative instant at, executes the IO, and returns
// the run-relative completion time.
func (d *FileDevice) Submit(at time.Duration, io IO) (time.Duration, error) {
	if d.f == nil {
		return 0, ErrClosed
	}
	if err := checkIO(io, d.capacity); err != nil {
		return 0, err
	}
	if io.Size > int64(len(d.buf)) {
		d.buf = make([]byte, io.Size)
	}
	buf := d.buf[:io.Size]
	if wait := at - time.Since(d.start); wait > 0 { //uflint:allow wallclock — real hardware: submission times are wall-clock deadlines
		time.Sleep(wait) //uflint:allow wallclock — real hardware: waits for the submission deadline
	}
	var err error
	if io.Mode == Read {
		_, err = d.f.ReadAt(buf, io.Off)
	} else {
		_, err = d.f.WriteAt(buf, io.Off)
		if err == nil {
			err = d.f.Sync()
		}
	}
	if err != nil {
		return 0, fmt.Errorf("device %s: %w", d.name, err)
	}
	return time.Since(d.start), nil //uflint:allow wallclock — real hardware: completions are measured on the wall clock
}
