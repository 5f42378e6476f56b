package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"exbox/internal/classifier"
	"exbox/internal/excr"
	"exbox/internal/mathx"
	"exbox/internal/traffic"

	"exbox/internal/apps"
	"exbox/internal/netsim"
)

// trainedState builds a real classifier state to push through the
// codec: train on the simulated WiFi cell, export.
func trainedState(t *testing.T, warm, rff bool) *classifier.PersistState {
	t.Helper()
	cfg := classifier.DefaultConfig()
	cfg.WarmStart = warm
	cfg.SVM.RFF = rff
	if rff {
		cfg.SVM.RFFDim = 64
	}
	ac := classifier.New(excr.DefaultSpace, cfg)
	o := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}
	rng := mathx.NewRand(31)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 40, 20, 0, excr.DefaultSpace), nil) {
		ac.Observe(excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)})
	}
	if ac.Bootstrapping() {
		t.Fatal("classifier did not graduate")
	}
	ps, err := ac.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name      string
		warm, rff bool
	}{
		{"cold", false, false},
		{"warm", true, false},
		{"warm+rff", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := trainedState(t, tc.warm, tc.rff)
			got, err := Decode(Encode(ps))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(ps, got) {
				t.Fatal("state diverged through the codec")
			}
			// And the decoded state must actually import — the codec's
			// output feeds classifier.ImportState in production.
			dst := classifier.New(excr.DefaultSpace, classifier.DefaultConfig())
			if tc.warm {
				cfg := classifier.DefaultConfig()
				cfg.WarmStart = true
				dst = classifier.New(excr.DefaultSpace, cfg)
			}
			if err := dst.ImportState(got); err != nil {
				t.Fatalf("ImportState of decoded snapshot: %v", err)
			}
		})
	}
}

// TestDecodedDecisionsBitEqual: encode, decode, import into a fresh
// classifier, and compare decisions bit-for-bit with the source — the
// full disk-shaped round trip, not just struct equality.
func TestDecodedDecisionsBitEqual(t *testing.T) {
	cfg := classifier.DefaultConfig()
	cfg.WarmStart = true
	src := classifier.New(excr.DefaultSpace, cfg)
	o := apps.Oracle{Net: netsim.FluidWiFi{Config: netsim.SimWiFi()}}
	rng := mathx.NewRand(32)
	for _, e := range traffic.Arrivals(traffic.Random(rng, 40, 20, 0, excr.DefaultSpace), nil) {
		src.Observe(excr.Sample{Arrival: e.Arrival, Label: o.Label(e.Arrival)})
	}
	ps, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(Encode(ps))
	if err != nil {
		t.Fatal(err)
	}
	dst := classifier.New(excr.DefaultSpace, cfg)
	if err := dst.ImportState(got); err != nil {
		t.Fatal(err)
	}
	probes := traffic.Arrivals(traffic.Random(mathx.NewRand(33), 25, 20, 0, excr.DefaultSpace), nil)
	for _, e := range probes {
		da, db := src.Decide(e.Arrival), dst.Decide(e.Arrival)
		if da.Admit != db.Admit ||
			math.Float64bits(da.Margin) != math.Float64bits(db.Margin) ||
			math.Float64bits(da.Depth) != math.Float64bits(db.Depth) {
			t.Fatalf("decoded decision diverged: %+v != %+v", da, db)
		}
	}
}

// TestDecodeRetiredQuantFlag is the v2 compatibility pin: a snapshot
// written by a build that still had the int16 SV slab carries 1 in the
// model's quantized-slab byte. The slab itself was never serialized —
// only the exact float64 slab was — so such a file must decode to the
// exact model and decide bit-equal to it.
func TestDecodeRetiredQuantFlag(t *testing.T) {
	for _, rff := range []bool{false, true} { // scoring off the exact slab, and off the RFF tier
		testDecodeRetiredQuantFlag(t, rff)
	}
}

func testDecodeRetiredQuantFlag(t *testing.T, rff bool) {
	ps := trainedState(t, true, rff)
	data := Encode(ps)
	// Offset of the flag in the payload: the classifier scalars, the
	// space, the training window, then the model block up to PruneTol.
	perSample := 4*ps.Space.Dim() + 4 + 4 + 8
	off := headerLen + (8 + 1 + 8 + 8 + 8 + 8 + 8) + (4 + 4) + 4 + len(ps.Samples)*perSample +
		1 + 4 + 4*8 + 3*8 + 1 + 8 + 8
	if data[off] != 0 || (data[off-1-8-8] == 1) != rff {
		t.Fatalf("flag offset %d is off: byte %d, RFF byte %d (layout changed?)", off, data[off], data[off-1-8-8])
	}
	data[off] = 1
	payload := data[headerLen : len(data)-trailerLen]
	binary.LittleEndian.PutUint32(data[len(data)-trailerLen:], crc32.Checksum(payload, crcTable))

	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode of a quantized-era snapshot: %v", err)
	}
	if !reflect.DeepEqual(ps, got) {
		t.Fatal("quantized-era snapshot did not decode to the exact-slab state")
	}
	cfg := classifier.DefaultConfig()
	cfg.WarmStart = true
	exact, old := classifier.New(excr.DefaultSpace, cfg), classifier.New(excr.DefaultSpace, cfg)
	if err := exact.ImportState(ps); err != nil {
		t.Fatal(err)
	}
	if err := old.ImportState(got); err != nil {
		t.Fatal(err)
	}
	for _, e := range traffic.Arrivals(traffic.Random(mathx.NewRand(34), 25, 20, 0, excr.DefaultSpace), nil) {
		if da, db := exact.Decide(e.Arrival), old.Decide(e.Arrival); da != db {
			t.Fatalf("quantized-era snapshot decides %+v, exact model %+v", db, da)
		}
	}
}

func TestDecodeRejectsEnvelopeDefects(t *testing.T) {
	valid := Encode(trainedState(t, true, false))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:], Version+1)
			return b
		}},
		{"zero version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:], 0)
			return b
		}},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-20] }},
		{"trailing junk", func(b []byte) []byte { return append(b, 0xAA, 0xBB) }},
		{"length lies", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[6:], 1<<40)
			return b
		}},
		{"crc mismatch", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		{"payload flip", func(b []byte) []byte { b[headerLen+3] ^= 0x01; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			if _, err := Decode(b); err == nil {
				t.Fatal("defective envelope was accepted")
			}
		})
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}
}

// TestDecodeTruncationSweep chops the envelope at every length; none
// may decode successfully (the CRC covers the full payload) and none
// may panic.
func TestDecodeTruncationSweep(t *testing.T) {
	valid := Encode(trainedState(t, true, false))
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(valid))
		}
	}
}

// TestDecodeCorruptionSweep flips one byte at a time across the whole
// envelope. Every flip must either error out or — only when the flip
// lands in ignored bound positions — produce a state; it must never
// panic. (A single-byte flip in the payload is always caught by the
// CRC; flips in the header are caught by magic/version/length checks;
// a flip in the CRC itself mismatches the payload.)
func TestDecodeCorruptionSweep(t *testing.T) {
	valid := Encode(trainedState(t, false, false))
	for i := 0; i < len(valid); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			b := append([]byte(nil), valid...)
			b[i] ^= bit
			if _, err := Decode(b); err == nil {
				t.Fatalf("byte %d flipped by %#x decoded cleanly", i, bit)
			}
		}
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.snap")
	first := Encode(trainedState(t, false, false))
	if err := Save(path, first); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !bytes.Equal(got, first) {
		t.Fatal("loaded bytes differ from saved")
	}
	// Overwrite in place: the rename replaces the old file whole.
	second := Encode(trainedState(t, true, false))
	if err := Save(path, second); err != nil {
		t.Fatalf("Save overwrite: %v", err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, second) {
		t.Fatal("overwrite did not replace the file")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir holds %d entries, want 1", len(entries))
	}
}

func TestSaveFailsIntoMissingDir(t *testing.T) {
	err := Save(filepath.Join(t.TempDir(), "no", "such", "dir", "x.snap"), []byte("data"))
	if err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
}
