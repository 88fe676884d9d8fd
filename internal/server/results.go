package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"uflip/internal/trace"
)

// A done job's results file, <id>.results, holds in this order:
//
//	"uflip-results 1\n"                the format and its version
//	uvarint length, CSV bytes          raw: what /csv serves
//	uvarint length, report bytes       raw: what /report serves
//	uvarint length, head               json.Marshal of the run records, series left out
//	per record: uvarint n, n uvarints  its response times in nanoseconds
//	CRC-32C of all the above           big-endian, as hash.Hash32.Sum appends it
//
// Every integer is in its shortest form and the head is json.Marshal's
// bytes, so whatever ReadResults accepts, resultsEncoder writes byte for byte.
const resultsMagic = "uflip-results 1\n"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRT is trace.MaxRTSeconds in nanoseconds.
const maxRT = time.Duration(trace.MaxRTSeconds * 1e9)

// Results is a results file's content; a job without a CSV or run records
// (array and paper jobs) has them nil.
type Results struct {
	CSV, Report []byte
	Records     []trace.RunRecord
}

// resultsEncoder encodes results files into memory a daemon worker keeps
// across its jobs: the file's bytes, and the run records' head with the
// memory it is encoded in.
type resultsEncoder struct {
	buf  []byte
	head []trace.RunRecord
	json jsonEncoder
}

// encode returns res's results file in e's buffer, valid until the next
// encode. A response time outside [0, maxRT] is an error: ReadResults would
// refuse the file.
func (e *resultsEncoder) encode(res Results) ([]byte, error) {
	e.head = append(e.head[:0], res.Records...)
	for i := range e.head {
		e.head[i].RTs = nil
	}
	var head any = &e.head
	if len(e.head) == 0 {
		head = res.Records // nil stays nil: "null", not "[]"
	}
	headJSON, err := e.json.encode(head, "", "")
	if err != nil {
		return nil, fmt.Errorf("results: encode head: %w", err)
	}
	b := append(e.buf[:0], resultsMagic...)
	for _, section := range [][]byte{res.CSV, res.Report, headJSON} {
		b = binary.AppendUvarint(b, uint64(len(section)))
		b = append(b, section...)
	}
	for i := range res.Records {
		b = binary.AppendUvarint(b, uint64(len(res.Records[i].RTs)))
		for _, d := range res.Records[i].RTs {
			if d < 0 || d > maxRT {
				return nil, fmt.Errorf("results: record %d: response time %v outside [0, %v]", i, d, maxRT)
			}
			b = binary.AppendUvarint(b, uint64(d))
		}
	}
	e.buf = binary.BigEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return e.buf, nil
}

// ReadResults reads the results file at path. An error that does not wrap
// fs.ErrNotExist means the file is damaged.
func ReadResults(path string) (Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Results{}, err
	}
	return decodeResults(data)
}

// decodeResults refuses a wrong magic line or checksum, a length beyond the
// bytes left, an integer not in its shortest form, a head json.Marshal would
// not write, a response time outside [0, maxRT] and trailing bytes. The CSV
// and report are copied: a restored job keeps them, not the file.
func decodeResults(data []byte) (Results, error) {
	body, ok := bytes.CutPrefix(data, []byte(resultsMagic))
	if !ok || len(body) < crc32.Size {
		return Results{}, errors.New("results: not a results file")
	}
	body, sum := body[:len(body)-crc32.Size], body[len(body)-crc32.Size:]
	if crc32.Checksum(data[:len(data)-crc32.Size], castagnoli) != binary.BigEndian.Uint32(sum) {
		return Results{}, errors.New("results: checksum mismatch")
	}
	d := resultsDecoder{b: body}
	res := Results{CSV: bytes.Clone(d.section()), Report: bytes.Clone(d.section())}
	head := d.section()
	if d.err != nil {
		return Results{}, d.err
	}
	if err := json.Unmarshal(head, &res.Records); err != nil {
		return Results{}, fmt.Errorf("results: decode head: %w", err)
	}
	for i := range res.Records {
		if res.Records[i].RTs != nil {
			return Results{}, fmt.Errorf("results: head holds the series of record %d", i)
		}
	}
	if canon, err := json.Marshal(res.Records); err != nil || !bytes.Equal(canon, head) {
		return Results{}, errors.New("results: head is not json.Marshal's encoding of its records")
	}
	for i := range res.Records {
		if n := d.length(); n > 0 { // a value takes a byte at least
			rts := make(trace.RTSeries, n)
			for k := range rts {
				rts[k] = time.Duration(d.uvarint(uint64(maxRT)))
			}
			res.Records[i].RTs = rts
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("results: %d bytes after the last series", len(d.b))
	}
	if d.err != nil {
		return Results{}, d.err
	}
	return res, nil
}

// resultsDecoder reads a results file's body. Its first error sticks, and
// every read after it returns zero.
type resultsDecoder struct {
	b   []byte
	err error
}

// uvarint reads a shortest-form uvarint of at most limit.
func (d *resultsDecoder) uvarint(limit uint64) uint64 {
	if d.err != nil {
		return 0
	}
	switch v, n := binary.Uvarint(d.b); {
	case n <= 0:
		d.err = errors.New("results: truncated or overlong integer")
	case n > 1 && d.b[n-1] == 0:
		d.err = errors.New("results: integer not in its shortest form")
	case v > limit:
		d.err = fmt.Errorf("results: %d out of range (at most %d)", v, limit)
	default:
		d.b = d.b[n:]
		return v
	}
	return 0
}

// length reads a count no larger than the bytes left after it.
func (d *resultsDecoder) length() int {
	n := d.uvarint(math.MaxUint64)
	if n > uint64(len(d.b)) {
		d.err, n = fmt.Errorf("results: length %d beyond the %d bytes left", n, len(d.b)), 0
	}
	return int(n)
}

// section reads a length-prefixed byte string, nil when empty.
func (d *resultsDecoder) section() []byte {
	n := d.length()
	s := d.b[:n:n]
	d.b = d.b[n:]
	if n == 0 {
		return nil
	}
	return s
}
