package incprof

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/obs"
	_ "github.com/incprof/incprof/internal/pprof" // register the pprof frontend
	"github.com/incprof/incprof/internal/profile"
)

// loadParallelisms are the DirStore.Parallelism values every load contract
// is checked at: serial, and pools smaller and larger than the core count.
var loadParallelisms = []int{1, 2, 8}

// loadFormats are the two dump layouts the contract tests cover: the
// canonical gmon.out.N encoding (nil format) and gzip pprof.
var loadFormats = []struct {
	name   string
	format *profile.Format
}{
	{"gmon", nil},
	{"pprof", registered("pprof")},
}

func registered(name string) *profile.Format {
	f, ok := profile.Lookup(name)
	if !ok {
		panic("format not registered: " + name)
	}
	return f
}

// writeLoadFixture writes n cumulative dumps of funcs functions each in
// the given format and returns the directory.
func writeLoadFixture(tb testing.TB, f *profile.Format, n, funcs int) string {
	tb.Helper()
	dir := tb.TempDir()
	st, err := NewFormatDirStore(dir, f)
	if err != nil {
		tb.Fatal(err)
	}
	for seq := 0; seq < n; seq++ {
		s := &profile.Sample{
			Seq:          seq,
			Timestamp:    time.Duration(seq+1) * time.Second,
			SamplePeriod: time.Millisecond,
		}
		for i := 0; i < funcs; i++ {
			k := int64((seq + 1) * (i%13 + 1))
			s.Funcs = append(s.Funcs, profile.FuncRecord{
				Name:     fmt.Sprintf("svc/pkg%02d.Handler%04d", i%11, i),
				Samples:  k,
				SelfTime: time.Duration(k) * time.Millisecond,
				Calls:    2 * k,
			})
		}
		s.Normalize()
		if err := st.Put(s); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

func openAt(t *testing.T, dir string, f *profile.Format, p int) *DirStore {
	t.Helper()
	st, err := NewFormatDirStore(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	st.Parallelism = p
	return st
}

// corruptTwo damages two dumps differently: the higher-Seq one holds
// garbage, which fails fast, and the lower-Seq one is truncated, so a
// parallel load that reported whichever failure finished first would
// name the wrong file.
func corruptTwo(t *testing.T, dir string, f *profile.Format) {
	t.Helper()
	st := openAt(t, dir, f, 1)
	if err := os.WriteFile(st.PathFor(11), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(st.PathFor(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.PathFor(4), info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

func TestDirStoreParallelLoadMatchesSerial(t *testing.T) {
	for _, lf := range loadFormats {
		t.Run(lf.name, func(t *testing.T) {
			dir := writeLoadFixture(t, lf.format, 40, 30)
			var want []*profile.Sample
			for _, p := range loadParallelisms {
				got, err := openAt(t, dir, lf.format, p).Snapshots()
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				if len(got) != 40 {
					t.Fatalf("parallelism %d: loaded %d dumps, want 40", p, len(got))
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallelism %d: loaded samples differ from parallelism 1", p)
				}
			}
		})
	}
}

func TestDirStoreParallelStrictErrorIsLowestSeq(t *testing.T) {
	for _, lf := range loadFormats {
		t.Run(lf.name, func(t *testing.T) {
			dir := writeLoadFixture(t, lf.format, 20, 10)
			corruptTwo(t, dir, lf.format)
			var want string
			for _, p := range loadParallelisms {
				snaps, err := openAt(t, dir, lf.format, p).Snapshots()
				if err == nil || snaps != nil {
					t.Fatalf("parallelism %d: strict load of a corrupt dir returned %d samples, err %v", p, len(snaps), err)
				}
				if !strings.Contains(err.Error(), formatDecoder(lf.format).fileName(4)+":") {
					t.Fatalf("parallelism %d: error %q does not name the lowest-Seq corrupt dump", p, err)
				}
				if want == "" {
					want = err.Error()
				} else if err.Error() != want {
					t.Fatalf("parallelism %d: error %q, parallelism 1 said %q", p, err, want)
				}
			}
		})
	}
}

func TestDirStoreParallelSalvageReport(t *testing.T) {
	type outcome struct {
		snaps           []*profile.Sample
		loaded          int
		skipped         []string
		cSkipped, cLoad int64
	}
	for _, lf := range loadFormats {
		t.Run(lf.name, func(t *testing.T) {
			dir := writeLoadFixture(t, lf.format, 20, 10)
			corruptTwo(t, dir, lf.format)
			var want *outcome
			for _, p := range loadParallelisms {
				obs.Enable(obs.Config{Seed: 1})
				snaps, rep, err := openAt(t, dir, lf.format, p).SnapshotsSalvage()
				got := &outcome{
					snaps:    snaps,
					loaded:   rep.Loaded,
					cSkipped: obs.C("incprof.salvage.skipped").Value(),
					cLoad:    obs.C("incprof.salvage.loaded").Value(),
				}
				obs.Disable()
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				for _, sk := range rep.Skipped {
					got.skipped = append(got.skipped, fmt.Sprintf("%s seq=%d: %v", sk.Name, sk.Seq, sk.Err))
				}
				if got.loaded != 18 || len(got.skipped) != 2 || rep.Skipped[0].Seq != 4 || rep.Skipped[1].Seq != 11 {
					t.Fatalf("parallelism %d: loaded %d, skipped %v; want 18 loaded, seqs 4 and 11 skipped", p, got.loaded, got.skipped)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallelism %d: salvage outcome differs from parallelism 1:\n got %+v\nwant %+v", p, got, want)
				}
			}
		})
	}
}

// BenchmarkDirStoreSnapshots times a full strict load of a 200-dump
// directory of 240-function dumps, serially and on GOMAXPROCS workers.
func BenchmarkDirStoreSnapshots(b *testing.B) {
	for _, lf := range loadFormats {
		dir := writeLoadFixture(b, lf.format, 200, 240)
		for _, p := range []int{1, 0} {
			b.Run(fmt.Sprintf("format=%s/parallelism=%d", lf.name, p), func(b *testing.B) {
				st, err := NewFormatDirStore(dir, lf.format)
				if err != nil {
					b.Fatal(err)
				}
				st.Parallelism = p
				b.ReportAllocs()
				for b.Loop() {
					if _, err := st.Snapshots(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
