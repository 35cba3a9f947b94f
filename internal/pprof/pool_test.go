package pprof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// wideSample builds a cumulative dump with n functions whose counters depend
// on seq, so consecutive dumps differ in every record.
func wideSample(seq, n int) *profile.Sample {
	s := &profile.Sample{
		Seq:          seq,
		Timestamp:    time.Duration(seq+1) * time.Second,
		SamplePeriod: time.Millisecond,
	}
	for i := 0; i < n; i++ {
		k := int64((seq + 1) * (i + 1))
		s.Funcs = append(s.Funcs, profile.FuncRecord{
			Name:     fmt.Sprintf("svc/pkg%02d.Handler%04d", i%7, i),
			Samples:  k,
			SelfTime: time.Duration(k) * time.Millisecond,
			Calls:    3 * k,
		})
	}
	s.Normalize()
	return s
}

func encoded(t testing.TB, s *profile.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeBytes(t testing.TB, data []byte) *profile.Sample {
	t.Helper()
	s, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cloneSample(s *profile.Sample) *profile.Sample {
	c := *s
	c.Funcs = append([]profile.FuncRecord(nil), s.Funcs...)
	c.Arcs = append([]profile.Arc(nil), s.Arcs...)
	return &c
}

// A decoded Sample must not share memory with the pooled scratch: decoding a
// different profile afterwards must leave it untouched.
func TestDecodePoolNoAliasing(t *testing.T) {
	a := decodeBytes(t, encoded(t, wideSample(1, 50)))
	want := cloneSample(a)
	for i := 0; i < 4; i++ {
		b := decodeBytes(t, encoded(t, wideSample(9+i, 80)))
		if reflect.DeepEqual(a, b) {
			t.Fatal("fixture profiles decode equal; the test would prove nothing")
		}
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatal("decoding a second profile changed the first one's Sample")
	}
}

// failingSeeds returns every FuzzDecode seed, inline and on disk, that does
// not decode: the torn, truncated and garbage inputs.
func failingSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	valid := encoded(t, sample())
	gz, err := gzip.NewReader(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"torn gzip":       valid[:len(valid)/2],
		"truncated raw":   raw[:len(raw)-1],
		"bare gzip magic": {0x1f, 0x8b},
		"not a profile":   []byte("not a profile"),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: unexpected corpus layout", e.Name())
		}
		q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		seeds[e.Name()] = []byte(q)
	}
	for name, data := range seeds {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			delete(seeds, name)
		}
	}
	if len(seeds) < 4 {
		t.Fatalf("only %d failing seeds found", len(seeds))
	}
	return seeds
}

// A failed decode must leave nothing behind in the scratch: the next decode
// on it equals a decode on a fresh one. The scratch is driven directly, so
// the check does not depend on which scratch the pool hands out.
func TestDecodePoolNoStateLeakAfterFailure(t *testing.T) {
	valid := encoded(t, wideSample(3, 40))
	want, err := newDecodeScratch().decode(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range failingSeeds(t) {
		sc := newDecodeScratch()
		// Fill the tables first, so a failure that stops early still runs
		// over a used scratch.
		if _, err := sc.decode(bytes.NewReader(encoded(t, wideSample(7, 60)))); err != nil {
			t.Fatal(err)
		}
		sc.reset()
		if _, err := sc.decode(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if !sc.reset() {
			t.Fatalf("%s: scratch not poolable after reset", name)
		}
		got, err := sc.decode(bytes.NewReader(valid))
		if err != nil {
			t.Fatalf("%s: valid decode after failure: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decode after a failed decode differs from a fresh decode", name)
		}

		// The same sequence through the public, pooled entry point.
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s: decoded", name)
		}
		if got := decodeBytes(t, valid); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled decode after a failed decode differs from a fresh decode", name)
		}
	}
}

// Decoders run from many goroutines at once on the parallel load path; each
// must see the serial result.
func TestDecodeConcurrent(t *testing.T) {
	const dumps, workers = 24, 8
	inputs := make([][]byte, dumps)
	want := make([]*profile.Sample, dumps)
	for i := range inputs {
		inputs[i] = encoded(t, wideSample(i, 20+i))
		want[i] = decodeBytes(t, inputs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range inputs {
				i := (k + w) % dumps // stagger so workers overlap on different dumps
				got, err := Decode(bytes.NewReader(inputs[i]))
				if err != nil {
					t.Errorf("worker %d, dump %d: %v", w, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, dump %d: concurrent decode differs from serial", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// danglingProfile is a raw profile whose one sample references location 5;
// with defineLoc the location exists and points at function 5, which
// does not.
func danglingProfile(defineLoc bool) []byte {
	var top, vt, sm wireWriter
	vt.varintField(vtType, 1)
	vt.varintField(vtUnit, 2)
	top.bytesField(fSampleType, vt.buf)
	sm.packedField(sLocationID, []uint64{5})
	sm.packedField(sValue, []uint64{1})
	top.bytesField(fSample, sm.buf)
	if defineLoc {
		var line, loc wireWriter
		line.varintField(lineFunctionID, 5)
		loc.varintField(locID, 5)
		loc.bytesField(locLine, line.buf)
		top.bytesField(fLocation, loc.buf)
	}
	for _, s := range []string{"", "samples", "count"} {
		top.bytesField(fStringTab, []byte(s))
	}
	return top.buf
}

// A used scratch must not resolve ids the current profile never defined:
// a dangling reference fails on it exactly as on a fresh scratch.
func TestDecodePoolNoStaleIDs(t *testing.T) {
	for _, defineLoc := range []bool{false, true} {
		bad := danglingProfile(defineLoc)
		_, want := newDecodeScratch().decode(bytes.NewReader(bad))
		if want == nil {
			t.Fatalf("defineLoc=%v: fixture decodes on a fresh scratch", defineLoc)
		}
		sc := newDecodeScratch()
		if _, err := sc.decode(bytes.NewReader(encoded(t, wideSample(7, 60)))); err != nil {
			t.Fatal(err)
		}
		sc.reset()
		if _, err := sc.decode(bytes.NewReader(bad)); err == nil || err.Error() != want.Error() {
			t.Fatalf("defineLoc=%v: used scratch gave %v, fresh scratch %v", defineLoc, err, want)
		}
	}
}
