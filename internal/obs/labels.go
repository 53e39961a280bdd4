package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled instruments: CounterVec / HistogramVec / GaugeVec families
// keyed by a fixed set of label keys (tenant, device, op). A child
// instrument is an ordinary Counter/Histogram registered under the
// canonical labeled name
//
//	base{key1="val1",key2="val2"}
//
// so children flow through Snapshot, the JSON surface, and cross-node
// aggregation (counters merge by sum keyed on the full labeled name)
// with no extra machinery, and WriteProm re-renders the suffix as
// proper Prometheus label pairs. Children are resolved once and cached
// in the vec (the hot path holds the child pointer, never the vec).

// labeledName renders the canonical child name. Values are escaped the
// way the Prometheus text format requires (backslash, quote, newline),
// so the stored form can be emitted verbatim inside braces.
func labeledName(base string, keys, vals []string) string {
	var b strings.Builder
	b.Grow(len(base) + 16*len(keys))
	b.WriteString(base)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(val(vals, i)))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func val(vals []string, i int) string {
	if i < len(vals) {
		return vals[i]
	}
	return ""
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// SplitLabeled splits a (possibly) labeled instrument name into its
// base and the label pairs inside the braces ("" when unlabeled).
func SplitLabeled(name string) (base, labels string) {
	if !strings.HasSuffix(name, "}") {
		return name, ""
	}
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// LabelName joins base and keyed values into the canonical labeled
// instrument name — the form vecs register their children under, and
// the key callers use to look a child up in a Snapshot.
func LabelName(base string, keyvals ...string) string {
	keys := make([]string, 0, len(keyvals)/2)
	vals := make([]string, 0, len(keyvals)/2)
	for i := 0; i+1 < len(keyvals); i += 2 {
		keys = append(keys, keyvals[i])
		vals = append(vals, keyvals[i+1])
	}
	return labeledName(base, keys, vals)
}

// vecCacheKey joins label values with a separator that cannot appear in
// a single rendered value unescaped.
func vecCacheKey(vals []string) string {
	return strings.Join(vals, "\x1f")
}

// CounterVec is a family of counters sharing one base name, keyed by a
// fixed list of label keys. A nil *CounterVec yields nil children,
// which discard updates.
type CounterVec struct {
	r    *Registry
	base string
	keys []string

	mu       sync.RWMutex
	children map[string]*Counter
}

// CounterVec returns a labeled counter family rooted at base.
func (r *Registry) CounterVec(base string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, base: base, keys: keys, children: map[string]*Counter{}}
}

// With resolves (creating on first use) the child for the given label
// values, in key order. Resolve once, hold the pointer.
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	k := vecCacheKey(vals)
	v.mu.RLock()
	c := v.children[k]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	c = v.r.Counter(labeledName(v.base, v.keys, vals))
	v.mu.Lock()
	v.children[k] = c
	v.mu.Unlock()
	return c
}

// HistogramVec is a family of histograms sharing one base name.
type HistogramVec struct {
	r    *Registry
	base string
	keys []string

	mu       sync.RWMutex
	children map[string]*Histogram
}

// HistogramVec returns a labeled histogram family rooted at base.
func (r *Registry) HistogramVec(base string, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r: r, base: base, keys: keys, children: map[string]*Histogram{}}
}

// With resolves (creating on first use) the child histogram.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if v == nil {
		return nil
	}
	k := vecCacheKey(vals)
	v.mu.RLock()
	h := v.children[k]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	h = v.r.Histogram(labeledName(v.base, v.keys, vals))
	v.mu.Lock()
	v.children[k] = h
	v.mu.Unlock()
	return h
}

// GaugeVal is a stored-value gauge: unlike the callback Gauge it holds
// the value itself, which suits labeled families whose members come and
// go (per-tenant shares). A nil *GaugeVal discards updates.
type GaugeVal struct {
	v atomic.Int64
}

// Set stores the value.
func (g *GaugeVal) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n.
func (g *GaugeVal) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the current value (zero for nil).
func (g *GaugeVal) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// GaugeVec is a family of stored-value gauges sharing one base name.
// Children register themselves as ordinary registry gauges under the
// canonical labeled name.
type GaugeVec struct {
	r    *Registry
	base string
	keys []string

	mu       sync.Mutex
	children map[string]*GaugeVal
}

// GaugeVec returns a labeled gauge family rooted at base.
func (r *Registry) GaugeVec(base string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r: r, base: base, keys: keys, children: map[string]*GaugeVal{}}
}

// With resolves (creating and registering on first use) the child
// gauge.
func (v *GaugeVec) With(vals ...string) *GaugeVal {
	if v == nil {
		return nil
	}
	k := vecCacheKey(vals)
	v.mu.Lock()
	defer v.mu.Unlock()
	g := v.children[k]
	if g == nil {
		g = &GaugeVal{}
		v.children[k] = g
		v.r.RegisterGauge(labeledName(v.base, v.keys, vals), g.Value)
	}
	return g
}

// Labels parses the inner label string of a labeled name back into
// key/value pairs, sorted by key — the consumer side (raidxctl top
// folding per-volume and per-device gauges into tables). Escapes are
// undone.
func Labels(labels string) [][2]string {
	if labels == "" {
		return nil
	}
	var out [][2]string
	for len(labels) > 0 {
		eq := strings.Index(labels, `="`)
		if eq < 0 {
			break
		}
		key := labels[:eq]
		rest := labels[eq+2:]
		var b strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
			i++
		}
		out = append(out, [2]string{key, b.String()})
		rest = rest[i:]
		rest = strings.TrimPrefix(rest, `"`)
		labels = strings.TrimPrefix(rest, ",")
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// LabelValue extracts one label's value from a labeled instrument name
// ("" when absent).
func LabelValue(name, key string) string {
	_, labels := SplitLabeled(name)
	for _, kv := range Labels(labels) {
		if kv[0] == key {
			return kv[1]
		}
	}
	return ""
}
