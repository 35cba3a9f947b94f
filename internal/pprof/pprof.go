// Package pprof is the Go pprof frontend: it decodes gzip-compressed
// profile.proto payloads — the format `go tool pprof`, net/http/pprof, and
// runtime/pprof produce — into the format-neutral profile.Sample the
// analysis core consumes, and encodes Samples back for fixtures and the
// cross-format gates.
//
// The ingestion contract mirrors gmon.out: each dump is CUMULATIVE since
// program start (a CPU profile whose collection started at run begin,
// snapshotted once per interval), and the differencer turns consecutive
// dumps into per-interval profiles by subtraction. Self time is attributed
// to the leaf frame of each stack, exactly as pprof's own "flat" view does,
// so a multi-stack profile folds to per-function totals.
//
// Column mapping: the sample_type table is scanned by name — "samples"
// (unit "count") feeds FuncRecord.Samples, "cpu" (unit "nanoseconds") feeds
// SelfTime, and an optional third "calls" column (an IncProf extension the
// encoder writes) feeds Calls. Real two-column Go CPU profiles therefore
// ingest with Calls left zero — the honest degradation for a format that
// does not count invocations. Call-graph arcs are likewise not represented:
// stack edges weight sample counts, not invocation counts, and fabricating
// arc counts from them would corrupt the call-graph reports.
//
// The sequence number travels in the profile's comment table ("seq=N");
// profiles without it (any real pprof capture) decode to Seq =
// profile.SeqUnassigned and the directory readers number them from the
// pprof.out.N file name.
package pprof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// Profile message field numbers (profile.proto).
const (
	fSampleType = 1
	fSample     = 2
	fLocation   = 4
	fFunction   = 5
	fStringTab  = 6
	fTimeNanos  = 9
	fDurNanos   = 10
	fPeriodType = 11
	fPeriod     = 12
	fComment    = 13
)

// ValueType fields.
const (
	vtType = 1
	vtUnit = 2
)

// Sample fields.
const (
	sLocationID = 1
	sValue      = 2
)

// Location fields.
const (
	locID   = 1
	locLine = 4
)

// Line fields.
const lineFunctionID = 1

// Function fields.
const (
	fnID   = 1
	fnName = 2
)

// DefaultSamplePeriod is assumed when a profile carries no period: the Go
// runtime's 100 Hz CPU profiling default.
const DefaultSamplePeriod = 10 * time.Millisecond

// gzipMagic is the two-byte gzip stream header every `go tool pprof` output
// starts with.
var gzipMagic = []byte{0x1f, 0x8b}

func init() {
	profile.Register(&profile.Format{
		Name:       "pprof",
		FilePrefix: "pprof.out.",
		Detect:     func(data []byte) bool { return bytes.HasPrefix(data, gzipMagic) },
		Decode:     Decode,
		Encode:     Encode,
	})
}

type valueType struct{ typ, unit uint64 }

// rawSample is one Sample message as the fold needs it: the first location
// id (the leaf frame) and the values, which live back to back in
// decodeScratch.values[off : off+n].
type rawSample struct {
	leaf   uint64
	hasLoc bool
	off, n int
}

// acc accumulates one function's columns across the stacks it is leaf of.
type acc struct {
	name                string
	samples, cpu, calls int64
}

// maxPooledBytes caps the payload buffers a scratch may keep: a scratch that
// decoded a larger profile is dropped rather than pooled, so one outsized
// dump does not pin its buffers and tables for the life of the process.
const maxPooledBytes = 4 << 20

// decodeScratch is the working memory of one Decode call. Decode takes one
// from scratchPool and hands it back cleared, on every return path, so a
// stream of dumps reuses one gzip/flate state, both payload buffers and the
// tables instead of reallocating them per dump. No memory of it is reachable
// from the returned Sample: names are copied out of the payload by
// string(b).
type decodeScratch struct {
	in, raw  bytes.Buffer // compressed input, decompressed payload
	br       bytes.Reader
	gz       gzip.Reader
	strtab   []string
	samples  []rawSample
	values   []int64           // every sample's values, back to back
	uints    []uint64          // parseSample's per-field scratch
	locFunc  map[uint64]uint64 // location id -> leaf function id
	funcName map[uint64]uint64 // function id -> name index
	byName   map[string]int    // function name -> index into accs
	accs     []acc
}

var scratchPool = sync.Pool{New: func() any { return newDecodeScratch() }}

func newDecodeScratch() *decodeScratch {
	return &decodeScratch{
		locFunc:  map[uint64]uint64{},
		funcName: map[uint64]uint64{},
		byName:   map[string]int{},
	}
}

// reset clears sc for the next decode and reports whether it is small
// enough to pool.
func (sc *decodeScratch) reset() bool {
	if sc.in.Cap()+sc.raw.Cap() > maxPooledBytes {
		return false
	}
	sc.in.Reset()
	sc.raw.Reset()
	sc.br.Reset(nil)
	clear(sc.strtab)
	sc.strtab = sc.strtab[:0]
	sc.samples = sc.samples[:0]
	sc.values = sc.values[:0]
	sc.uints = sc.uints[:0]
	clear(sc.locFunc)
	clear(sc.funcName)
	clear(sc.byName)
	clear(sc.accs)
	sc.accs = sc.accs[:0]
	return true
}

func (sc *decodeScratch) str(idx uint64) (string, error) {
	if idx >= uint64(len(sc.strtab)) {
		return "", fmt.Errorf("pprof: string index %d out of table (len %d)", idx, len(sc.strtab))
	}
	return sc.strtab[idx], nil
}

// Decode reads one pprof profile (gzip-compressed or raw proto) into a
// cumulative Sample. It is safe for concurrent use.
func Decode(r io.Reader) (*profile.Sample, error) {
	sc := scratchPool.Get().(*decodeScratch)
	defer func() {
		if sc.reset() {
			scratchPool.Put(sc)
		}
	}()
	return sc.decode(r)
}

func (sc *decodeScratch) decode(r io.Reader) (*profile.Sample, error) {
	if _, err := sc.in.ReadFrom(io.LimitReader(r, 1<<28)); err != nil {
		return nil, fmt.Errorf("pprof: reading payload: %w", err)
	}
	data := sc.in.Bytes()
	if bytes.HasPrefix(data, gzipMagic) {
		sc.br.Reset(data)
		if err := sc.gz.Reset(&sc.br); err != nil {
			return nil, fmt.Errorf("pprof: opening gzip stream: %w", err)
		}
		_, err := sc.raw.ReadFrom(io.LimitReader(&sc.gz, 1<<28))
		if cerr := sc.gz.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("pprof: decompressing: %w", err)
		}
		data = sc.raw.Bytes()
	}

	var (
		sampleTypes []valueType
		timeNanos   int64
		period      int64
		periodType  valueType
		comments    []uint64
	)

	r0 := &wireReader{data: data}
	for !r0.done() {
		num, wt, err := r0.tag()
		if err != nil {
			return nil, err
		}
		switch num {
		case fStringTab:
			if wt != wtLen {
				return nil, fmt.Errorf("pprof: string_table with wire type %d", wt)
			}
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			sc.strtab = append(sc.strtab, string(b))
		case fSampleType, fPeriodType:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(b)
			if err != nil {
				return nil, err
			}
			if num == fSampleType {
				sampleTypes = append(sampleTypes, vt)
			} else {
				periodType = vt
			}
		case fSample:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			if err := sc.parseSample(b); err != nil {
				return nil, err
			}
		case fLocation:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			id, fn, err := parseLocation(b)
			if err != nil {
				return nil, err
			}
			sc.locFunc[id] = fn
		case fFunction:
			b, err := r0.bytes()
			if err != nil {
				return nil, err
			}
			id, name, err := parseFunction(b)
			if err != nil {
				return nil, err
			}
			sc.funcName[id] = name
		case fTimeNanos:
			v, err := r0.varint()
			if err != nil {
				return nil, err
			}
			timeNanos = int64(v)
		case fPeriod:
			v, err := r0.varint()
			if err != nil {
				return nil, err
			}
			period = int64(v)
		case fComment:
			if comments, err = r0.uints(wt, comments); err != nil {
				return nil, err
			}
		default:
			if err := r0.skip(wt); err != nil {
				return nil, err
			}
		}
	}

	// Resolve the value columns by sample_type name.
	colSamples, colCPU, colCalls := -1, -1, -1
	for i, vt := range sampleTypes {
		name, err := sc.str(vt.typ)
		if err != nil {
			return nil, err
		}
		switch name {
		case "samples":
			colSamples = i
		case "cpu":
			colCPU = i
		case "calls":
			colCalls = i
		}
	}
	if colSamples < 0 && colCPU < 0 && len(sc.samples) > 0 {
		return nil, fmt.Errorf("pprof: no samples/count or cpu/nanoseconds sample type (have %d types)", len(sampleTypes))
	}

	out := &profile.Sample{Seq: profile.SeqUnassigned}
	if timeNanos < 0 {
		return nil, fmt.Errorf("pprof: negative time_nanos %d", timeNanos)
	}
	out.Timestamp = time.Duration(timeNanos)
	switch {
	case period > 0:
		unit := ""
		if periodType != (valueType{}) {
			var err error
			if unit, err = sc.str(periodType.unit); err != nil {
				return nil, err
			}
		}
		switch unit {
		case "", "nanoseconds":
			out.SamplePeriod = time.Duration(period)
		case "microseconds":
			out.SamplePeriod = time.Duration(period) * time.Microsecond
		case "milliseconds":
			out.SamplePeriod = time.Duration(period) * time.Millisecond
		case "seconds":
			out.SamplePeriod = time.Duration(period) * time.Second
		default:
			return nil, fmt.Errorf("pprof: unsupported period unit %q", unit)
		}
	case period < 0:
		return nil, fmt.Errorf("pprof: negative period %d", period)
	default:
		out.SamplePeriod = DefaultSamplePeriod
	}

	// Fold stacks to leaf functions, pprof's flat view.
	for _, s := range sc.samples {
		if !s.hasLoc {
			continue
		}
		fnID, ok := sc.locFunc[s.leaf]
		if !ok {
			return nil, fmt.Errorf("pprof: sample references unknown location %d", s.leaf)
		}
		nameIdx, ok := sc.funcName[fnID]
		if !ok {
			return nil, fmt.Errorf("pprof: location %d references unknown function %d", s.leaf, fnID)
		}
		name, err := sc.str(nameIdx)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, fmt.Errorf("pprof: function %d has an empty name", fnID)
		}
		i, ok := sc.byName[name]
		if !ok {
			i = len(sc.accs)
			sc.byName[name] = i
			sc.accs = append(sc.accs, acc{name: name})
		}
		a := &sc.accs[i]
		vals := sc.values[s.off : s.off+s.n]
		var v int64
		if v, err = take(vals, colSamples, name); err != nil {
			return nil, err
		}
		a.samples += v
		if v, err = take(vals, colCPU, name); err != nil {
			return nil, err
		}
		a.cpu += v
		if v, err = take(vals, colCalls, name); err != nil {
			return nil, err
		}
		a.calls += v
	}
	out.Funcs = make([]profile.FuncRecord, 0, len(sc.accs))
	for _, a := range sc.accs {
		if colSamples < 0 && a.cpu > 0 && out.SamplePeriod > 0 {
			// Profiles lacking a samples/count column carry only cpu time;
			// recover the histogram count from the period. Never applied
			// when a samples column exists — a zero there means zero.
			a.samples = (a.cpu + int64(out.SamplePeriod)/2) / int64(out.SamplePeriod)
		}
		if a.samples == 0 && a.cpu == 0 && a.calls == 0 {
			continue
		}
		out.Funcs = append(out.Funcs, profile.FuncRecord{
			Name:     a.name,
			Samples:  a.samples,
			SelfTime: time.Duration(a.cpu),
			Calls:    a.calls,
		})
	}

	// The sequence number, if the producer recorded one, rides the comment
	// table as "seq=N".
	for _, idx := range comments {
		c, err := sc.str(idx)
		if err != nil {
			return nil, err
		}
		if v, ok := strings.CutPrefix(c, "seq="); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("pprof: bad seq comment %q", c)
			}
			out.Seq = n
		}
	}

	out.Normalize()
	return out, nil
}

// take reads one value column of a sample; a column the sample does not
// carry reads as zero.
func take(vals []int64, col int, name string) (int64, error) {
	if col < 0 || col >= len(vals) {
		return 0, nil
	}
	if vals[col] < 0 {
		return 0, fmt.Errorf("pprof: negative sample value %d for %q", vals[col], name)
	}
	return vals[col], nil
}

func parseValueType(b []byte) (valueType, error) {
	var vt valueType
	r := &wireReader{data: b}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return vt, err
		}
		switch num {
		case vtType:
			if vt.typ, err = r.varint(); err != nil {
				return vt, err
			}
		case vtUnit:
			if vt.unit, err = r.varint(); err != nil {
				return vt, err
			}
		default:
			if err := r.skip(wt); err != nil {
				return vt, err
			}
		}
	}
	return vt, nil
}

// parseSample appends one Sample message to sc.samples, its values to
// sc.values.
func (sc *decodeScratch) parseSample(b []byte) error {
	s := rawSample{off: len(sc.values)}
	r := &wireReader{data: b}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return err
		}
		switch num {
		case sLocationID:
			if sc.uints, err = r.uints(wt, sc.uints[:0]); err != nil {
				return err
			}
			if !s.hasLoc && len(sc.uints) > 0 {
				s.leaf, s.hasLoc = sc.uints[0], true
			}
		case sValue:
			if sc.uints, err = r.uints(wt, sc.uints[:0]); err != nil {
				return err
			}
			for _, v := range sc.uints {
				sc.values = append(sc.values, int64(v))
			}
		default:
			if err := r.skip(wt); err != nil {
				return err
			}
		}
	}
	s.n = len(sc.values) - s.off
	sc.samples = append(sc.samples, s)
	return nil
}

func parseLocation(b []byte) (id, fn uint64, err error) {
	r := &wireReader{data: b}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case locID:
			if id, err = r.varint(); err != nil {
				return 0, 0, err
			}
		case locLine:
			lb, err := r.bytes()
			if err != nil {
				return 0, 0, err
			}
			// The first Line of a location is the leaf (innermost) frame.
			if fn == 0 {
				lr := &wireReader{data: lb}
				for !lr.done() {
					lnum, lwt, err := lr.tag()
					if err != nil {
						return 0, 0, err
					}
					if lnum == lineFunctionID {
						if fn, err = lr.varint(); err != nil {
							return 0, 0, err
						}
					} else if err := lr.skip(lwt); err != nil {
						return 0, 0, err
					}
				}
			}
		default:
			if err := r.skip(wt); err != nil {
				return 0, 0, err
			}
		}
	}
	return id, fn, nil
}

func parseFunction(b []byte) (id, name uint64, err error) {
	r := &wireReader{data: b}
	for !r.done() {
		num, wt, err := r.tag()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case fnID:
			if id, err = r.varint(); err != nil {
				return 0, 0, err
			}
		case fnName:
			if name, err = r.varint(); err != nil {
				return 0, 0, err
			}
		default:
			if err := r.skip(wt); err != nil {
				return 0, 0, err
			}
		}
	}
	return id, name, nil
}

// Encode writes the sample as a gzip-compressed pprof profile with the
// three-column sample_type table [samples/count, cpu/nanoseconds,
// calls/count], one single-frame stack per function, the period as
// cpu/nanoseconds, the timestamp as time_nanos, and the sequence number as
// a "seq=N" comment. Call-graph arcs are not representable and are dropped
// — decoding the result yields the sample minus its arcs. Output is
// deterministic for a normalized sample.
func Encode(w io.Writer, s *profile.Sample) error {
	// String table: "" first as the spec requires, then fixed labels, then
	// function names in their (sorted) record order.
	strtab := []string{"", "samples", "count", "cpu", "nanoseconds", "calls"}
	idx := map[string]uint64{}
	for i, str := range strtab {
		idx[str] = uint64(i)
	}
	intern := func(str string) uint64 {
		if i, ok := idx[str]; ok {
			return i
		}
		idx[str] = uint64(len(strtab))
		strtab = append(strtab, str)
		return idx[str]
	}
	funcs := append([]profile.FuncRecord(nil), s.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name < funcs[j].Name })

	var top wireWriter
	vt := func(typ, unit string) []byte {
		var w wireWriter
		w.varintField(vtType, intern(typ))
		w.varintField(vtUnit, intern(unit))
		return w.buf
	}
	top.bytesField(fSampleType, vt("samples", "count"))
	top.bytesField(fSampleType, vt("cpu", "nanoseconds"))
	top.bytesField(fSampleType, vt("calls", "count"))

	for i, f := range funcs {
		id := uint64(i + 1)
		var sm wireWriter
		sm.packedField(sLocationID, []uint64{id})
		sm.packedField(sValue, []uint64{uint64(f.Samples), uint64(f.SelfTime), uint64(f.Calls)})
		top.bytesField(fSample, sm.buf)
	}
	for i, f := range funcs {
		id := uint64(i + 1)
		var line wireWriter
		line.varintField(lineFunctionID, id)
		var loc wireWriter
		loc.varintField(locID, id)
		loc.bytesField(locLine, line.buf)
		top.bytesField(fLocation, loc.buf)
		var fn wireWriter
		fn.varintField(fnID, id)
		fn.varintField(fnName, intern(f.Name))
		top.bytesField(fFunction, fn.buf)
	}
	seqIdx := uint64(0)
	if s.Seq != profile.SeqUnassigned {
		seqIdx = intern("seq=" + strconv.Itoa(s.Seq))
	}
	for _, str := range strtab {
		top.bytesField(fStringTab, []byte(str))
	}
	top.varintField(fTimeNanos, uint64(s.Timestamp))
	top.bytesField(fPeriodType, vtStatic("cpu", "nanoseconds", idx))
	top.varintField(fPeriod, uint64(s.SamplePeriod))
	if seqIdx != 0 {
		top.packedField(fComment, []uint64{seqIdx})
	}

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(top.buf); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// vtStatic builds a ValueType from already-interned strings (the encode
// path writes the string table before the trailer fields, so late interning
// would corrupt it).
func vtStatic(typ, unit string, idx map[string]uint64) []byte {
	var w wireWriter
	w.varintField(vtType, idx[typ])
	w.varintField(vtUnit, idx[unit])
	return w.buf
}
