// Package snapshot is the versioned binary codec and atomic file
// persistence for ExBox's per-cell inference state: the classifier's
// PersistState — published model, training window, phase counters,
// warm-start seed — flattened to a checksummed byte envelope that a
// restarted (or remote, see ROADMAP item 1) middlebox can restore
// with bit-identical decisions.
//
// Envelope layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "EXSN"
//	4       2     format version (currently 2)
//	6       8     payload length
//	14      n     payload (version-specific field stream)
//	14+n    4     CRC-32C (Castagnoli) over the payload
//
// Decode is strict by design: wrong magic, unknown version, a payload
// length that disagrees with the buffer (truncation or trailing
// junk), a checksum mismatch, or any field that runs past the buffer
// all return an error — never a panic — so a torn write or a
// version-skewed file degrades to a cold start. Structural invariants
// of the decoded state (slab strides, scaler lengths, finite values)
// are enforced one layer up by svm.ModelFromState and
// classifier.ImportState, which the decoded struct must pass before
// any of it reaches a decision path.
//
// Save writes atomically: temp file in the destination directory,
// fsync, rename. Readers therefore always see either the previous
// complete snapshot or the new one, never a torn file.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/learner"
	"exbox/internal/svm"
)

// Version is the current snapshot format version. Decode rejects
// anything else; bumping it is how incompatible layout changes stay
// restart-safe (an old daemon refuses a new file and cold-starts).
// v2 appended a quantized-slab flag to the model field stream; the
// int16 slab is gone, so the writer emits the byte as 0 and the reader
// skips it — the exact slab is what was serialized, and an old
// quantized snapshot loads as the exact model.
const Version = 2

// magic identifies a snapshot file.
var magic = [4]byte{'E', 'X', 'S', 'N'}

// headerLen is magic + version + payload length; trailerLen the CRC.
const (
	headerLen  = 4 + 2 + 8
	trailerLen = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSpaceSide bounds the decoded traffic-matrix space per axis — far
// above any real deployment, low enough that a corrupt header cannot
// demand a gigantic allocation before the per-field bounds checks run.
const maxSpaceSide = 1 << 16

// Encode flattens the state into a self-validating snapshot envelope.
func Encode(ps *classifier.PersistState) []byte {
	var w writer
	w.u64(ps.FitSeq)
	w.bool(ps.Bootstrap)
	w.f64(ps.Calibration)
	w.u64(uint64(ps.Observed))
	w.u64(uint64(ps.SinceTrain))
	w.u64(uint64(ps.SinceCV))
	w.f64(ps.LastCVScore)
	w.u32(uint32(ps.Space.Classes))
	w.u32(uint32(ps.Space.Levels))
	w.u32(uint32(len(ps.Samples)))
	for _, s := range ps.Samples {
		for _, c := range s.Arrival.Matrix.Counts() {
			w.u32(uint32(c))
		}
		w.u32(uint32(s.Arrival.Class))
		w.u32(uint32(s.Arrival.Level))
		w.f64(s.Label)
	}
	if m := ps.Model; m != nil {
		w.bool(true)
		w.u32(uint32(m.Config.Kernel))
		w.f64(m.Config.C)
		w.f64(m.Config.Gamma)
		w.f64(m.Config.Tol)
		w.f64(0) // retired svm.Config.Eps
		w.u64(0) // retired svm.Config.MaxPasses
		w.u64(uint64(m.Config.MaxIter))
		w.u64(uint64(m.Config.CacheRows))
		w.bool(m.Config.RFF)
		w.u64(uint64(m.Config.RFFDim))
		w.f64(m.Config.PruneTol)
		w.bool(false) // v2's retired quantized-slab flag
		w.f64(m.Gamma)
		w.u32(uint32(m.Dim))
		w.f64s(m.ScalerMean)
		w.f64s(m.ScalerStd)
		w.f64s(m.SVCoef)
		w.f64(m.B)
		w.f64s(m.WLinear)
		w.f64s(m.WFold)
		w.f64(m.BFold)
		w.f64s(m.SVSlab)
		w.f64s(m.SVNorm)
		if r := m.RFF; r != nil {
			w.bool(true)
			w.u32(uint32(r.NumFreq))
			w.u32(uint32(r.Dim))
			w.f64s(r.WProj)
			w.f64s(r.Phase)
			w.f64s(r.WCos)
			w.f64s(r.WSin)
			w.f64s(r.WLin)
			w.f64(r.Bias)
		} else {
			w.bool(false)
		}
	} else {
		w.bool(false)
	}
	if ws := ps.Warm; ws != nil {
		w.bool(true)
		w.f64s(ws.Warm.Alpha)
		w.f64(ws.Warm.B)
		w.f64s(ws.Warm.ScalerMean)
		w.f64s(ws.Warm.ScalerStd)
		w.u64(uint64(ws.Warm.N))
		w.u64(uint64(ws.Warm.Age))
		w.u32(uint32(len(ws.Keys)))
		for _, k := range ws.Keys {
			w.str(k)
		}
		w.f64s(ws.Labels)
	} else {
		w.bool(false)
	}

	payload := w.buf
	out := make([]byte, headerLen+len(payload)+trailerLen)
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[4:], Version)
	binary.LittleEndian.PutUint64(out[6:], uint64(len(payload)))
	copy(out[headerLen:], payload)
	binary.LittleEndian.PutUint32(out[headerLen+len(payload):], crc32.Checksum(payload, crcTable))
	return out
}

// Decode parses a snapshot envelope back into a PersistState. Any
// structural defect — bad magic, unknown version, truncation, trailing
// bytes, checksum mismatch, a field running past the buffer — returns
// an error; Decode never panics on hostile input. The result still
// must pass classifier.ImportState before serving decisions.
func Decode(data []byte) (*classifier.PersistState, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("snapshot: %d bytes, shorter than the envelope", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, errors.New("snapshot: bad magic")
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads %d", v, Version)
	}
	plen := binary.LittleEndian.Uint64(data[6:])
	if plen != uint64(len(data)-headerLen-trailerLen) {
		return nil, fmt.Errorf("snapshot: payload length %d disagrees with %d-byte file (truncated or trailing bytes)",
			plen, len(data))
	}
	payload := data[headerLen : len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (%08x != %08x)", got, want)
	}

	r := &reader{buf: payload}
	ps := &classifier.PersistState{
		FitSeq:      r.u64(),
		Bootstrap:   r.bool(),
		Calibration: r.f64(),
		Observed:    r.count(),
		SinceTrain:  r.count(),
		SinceCV:     r.count(),
		LastCVScore: r.f64(),
	}
	classes := int(r.u32())
	levels := int(r.u32())
	if r.err == nil && (classes < 1 || classes > maxSpaceSide || levels < 1 || levels > maxSpaceSide) {
		return nil, fmt.Errorf("snapshot: implausible space %dx%d", classes, levels)
	}
	if r.err != nil {
		return nil, r.err
	}
	ps.Space = excr.Space{Classes: classes, Levels: levels}
	dim := classes * levels
	nsamples := r.len(4*dim + 4 + 4 + 8) // counts + class + level + label per sample
	if r.err != nil {
		return nil, r.err
	}
	ps.Samples = make([]excr.Sample, 0, nsamples)
	counts := make([]int, dim)
	for i := 0; i < nsamples; i++ {
		for j := range counts {
			counts[j] = int(r.u32())
		}
		class := excr.AppClass(r.u32())
		level := excr.SNRLevel(r.u32())
		label := r.f64()
		if r.err != nil {
			return nil, r.err
		}
		ps.Samples = append(ps.Samples, excr.Sample{
			Arrival: excr.Arrival{Matrix: excr.MatrixFromCounts(ps.Space, counts), Class: class, Level: level},
			Label:   label,
		})
	}
	if r.bool() { // model present
		m := &svm.ModelState{}
		m.Config.Kernel = svm.KernelKind(r.u32())
		m.Config.C = r.f64()
		m.Config.Gamma = r.f64()
		m.Config.Tol = r.f64()
		_ = r.f64() // retired svm.Config.Eps
		_ = r.u64() // retired svm.Config.MaxPasses
		m.Config.MaxIter = r.count()
		m.Config.CacheRows = r.count()
		m.Config.RFF = r.bool()
		m.Config.RFFDim = r.count()
		m.Config.PruneTol = r.f64()
		_ = r.bool() // v2's retired quantized-slab flag
		m.Gamma = r.f64()
		m.Dim = int(r.u32())
		m.ScalerMean = r.f64s()
		m.ScalerStd = r.f64s()
		m.SVCoef = r.f64s()
		m.B = r.f64()
		m.WLinear = r.f64s()
		m.WFold = r.f64s()
		m.BFold = r.f64()
		m.SVSlab = r.f64s()
		m.SVNorm = r.f64s()
		if r.bool() { // rff present
			rf := &svm.RFFState{}
			rf.NumFreq = int(r.u32())
			rf.Dim = int(r.u32())
			rf.WProj = r.f64s()
			rf.Phase = r.f64s()
			rf.WCos = r.f64s()
			rf.WSin = r.f64s()
			rf.WLin = r.f64s()
			rf.Bias = r.f64()
			m.RFF = rf
		}
		ps.Model = m
	}
	if r.bool() { // warm seed present
		ws := &learner.WarmSVMState{}
		ws.Warm.Alpha = r.f64s()
		ws.Warm.B = r.f64()
		ws.Warm.ScalerMean = r.f64s()
		ws.Warm.ScalerStd = r.f64s()
		ws.Warm.N = r.count()
		ws.Warm.Age = r.count()
		nkeys := r.len(4) // each key is at least a length prefix
		if r.err != nil {
			return nil, r.err
		}
		ws.Keys = make([]string, 0, nkeys)
		for i := 0; i < nkeys; i++ {
			ws.Keys = append(ws.Keys, r.str())
			if r.err != nil {
				return nil, r.err
			}
		}
		ws.Labels = r.f64s()
		ps.Warm = ws
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("snapshot: %d undecoded trailing payload bytes", len(r.buf)-r.off)
	}
	return ps, nil
}

// Save writes data to path atomically: a temp file in the same
// directory is written, fsynced, and renamed over the destination, so
// a crash mid-write can never leave a torn snapshot behind.
func Save(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself; best-effort — some filesystems refuse
	// directory fsync, and the data file is already durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Load reads a snapshot file; the caller Decodes it.
func Load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// writer accumulates the little-endian payload stream.
type writer struct{ buf []byte }

func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *writer) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}
func (w *writer) f64s(s []float64) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.f64(v)
	}
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// reader walks the payload with sticky-error bounds checking: the
// first out-of-bounds read latches err and every later read returns a
// zero value, so decode control flow stays linear and panic-free.
type reader struct {
	buf []byte
	off int
	err error
}

var errTruncated = errors.New("snapshot: payload truncated mid-field")

func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.buf)-r.off < n {
		if r.err == nil {
			r.err = errTruncated
		}
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.err = errors.New("snapshot: corrupt boolean")
		return false
	}
	return b[0] == 1
}

// count decodes a non-negative integer counter written as u64,
// rejecting values that don't fit a signed int.
func (r *reader) count() int {
	v := r.u64()
	if r.err == nil && v > math.MaxInt64/2 {
		r.err = errors.New("snapshot: counter out of range")
		return 0
	}
	return int(v)
}

// len decodes a collection length and verifies the remaining payload
// can actually hold that many elements of elemSize bytes, so a corrupt
// length can never demand an allocation bigger than the input itself.
func (r *reader) len(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n*elemSize < 0 || n*elemSize > len(r.buf)-r.off {
		r.err = errTruncated
		return 0
	}
	return n
}

func (r *reader) f64s() []float64 {
	n := r.len(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) str() string {
	n := r.len(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
