package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4), written without any
// dependency: the format is lines of `name{labels} value` grouped under
// `# HELP` / `# TYPE` headers. WriteMetricsText renders the metrics
// registry — counters, the per-schedule vector, and the four latency
// histograms in seconds — plus any caller-supplied families (pool gauges,
// admission queue state and per-tenant tallies, ring accounting), and
// LintExposition is the strict parser the CI lint test runs against our
// own output.

// Label is one exposition label pair.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition sample of a Family: a value under a label
// set (possibly empty).
type Sample struct {
	Labels []Label
	Value  float64
}

// Family is one caller-supplied metric family appended to the registry's
// own output — the hook for values whose truth lives outside obs (pool
// occupancy, admission queue depth and per-tenant tallies). Type must be
// "counter", "gauge" or "untyped".
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// metricPrefix namespaces every exported family.
const metricPrefix = "aomp_"

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeFamily writes one HELP/TYPE header and its samples.
func writeFamily(w *bufio.Writer, f Family) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type)
	for _, s := range f.Samples {
		writeSample(w, f.Name, s.Labels, s.Value)
	}
}

func writeSample(w *bufio.Writer, name string, labels []Label, v float64) {
	w.WriteString(name)
	if len(labels) > 0 {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, `%s="%s"`, l.Name, escapeLabel(l.Value))
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// writeHistogram renders one HistogramSnapshot as a Prometheus histogram
// in seconds: cumulative `_bucket{le=...}` lines (le in seconds), then
// `_sum` and `_count`.
func writeHistogram(w *bufio.Writer, name, help string, h HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, b := range h.Buckets {
		le := "+Inf"
		if b.UpperNs != math.MaxInt64 {
			le = formatValue(float64(b.UpperNs) / 1e9)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, b.Count)
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(float64(h.SumNs)/1e9))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// counterFamily builds a single-sample counter Family.
func counterFamily(name, help string, v uint64) Family {
	return Family{Name: name, Help: help, Type: "counter",
		Samples: []Sample{{Value: float64(v)}}}
}

// WriteMetricsText renders the metrics registry as Prometheus text
// exposition (content type "text/plain; version=0.0.4"), followed by any
// caller-supplied extra families. Extra family names must not collide
// with the registry's own (all share the "aomp_" prefix; the registry
// never emits a family listed below twice, and LintExposition rejects
// duplicates). The write is a point-in-time scrape of monotone counters:
// safe concurrently with recording.
func WriteMetricsText(w io.Writer, extra ...Family) error {
	snap := ReadMetrics()
	bw := bufio.NewWriter(w)

	entries := Family{Name: metricPrefix + "region_entries_total",
		Help: "Parallel region entries by how each got its team: pool hit, cold spawn, narrowed (solo), admission-degraded (bypass).",
		Type: "counter"}
	for _, l := range []struct {
		name string
		n    uint64
	}{{"hit", snap.Leases.Hit}, {"cold", snap.Leases.Cold}, {"solo", snap.Leases.Solo}, {"bypass", snap.Leases.Bypass}} {
		entries.Samples = append(entries.Samples, Sample{Labels: []Label{{Name: "lease", Value: l.name}}, Value: float64(l.n)})
	}
	writeFamily(bw, entries)
	writeFamily(bw, counterFamily(metricPrefix+"steal_attempts_total",
		"Empty-deque probes of sibling task deques.", snap.StealAttempts))
	writeFamily(bw, counterFamily(metricPrefix+"steals_total",
		"Probes that took a task.", snap.Steals))
	writeFamily(bw, counterFamily(metricPrefix+"tasks_spawned_total",
		"Tasks queued on deques, parked on dependences, or inlined.", snap.TasksSpawned))
	writeFamily(bw, counterFamily(metricPrefix+"tasks_completed_total",
		"Task executions finished.", snap.TasksCompleted))

	loop := Family{Name: metricPrefix + "loop_shares_total",
		Help: "Worker shares of work-sharing encounters by resolved schedule kind.",
		Type: "counter"}
	for _, s := range snap.LoopShares {
		loop.Samples = append(loop.Samples, Sample{
			Labels: []Label{{Name: "schedule", Value: s.Schedule}},
			Value:  float64(s.Shares),
		})
	}
	writeFamily(bw, loop)

	writeHistogram(bw, metricPrefix+"region_latency_seconds",
		"Parallel region latency, fork to full join.", snap.RegionLatency)
	writeHistogram(bw, metricPrefix+"barrier_wait_seconds",
		"Time workers spent blocked in team barriers.", snap.BarrierWait)
	writeHistogram(bw, metricPrefix+"admission_wait_seconds",
		"Queue wait of admitted region entries (zero for fast-path grants).", snap.AdmitWait)
	writeHistogram(bw, metricPrefix+"task_spawn_latency_seconds",
		"Latency from task spawn to the start of its execution.", snap.SpawnLatency)

	for _, f := range extra {
		writeFamily(bw, f)
	}
	return bw.Flush()
}

// -------------------------------------------------------------- linting --

// validMetricName / validLabelName follow the exposition grammar.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// baseFamily strips a histogram sample suffix so _bucket/_sum/_count
// lines resolve to their declaring family.
func baseFamily(name string, typ map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, suf); ok {
			if typ[b] == "histogram" {
				return b
			}
		}
	}
	return name
}

// parseSampleLine splits `name{labels} value` into its parts. Label
// values may contain escaped quotes.
func parseSampleLine(line string) (name string, labels []Label, value string, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	sp := strings.IndexAny(rest, " \t")
	if brace >= 0 && (sp < 0 || brace < sp) {
		name = rest[:brace]
		rest = rest[brace+1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if rest == "" {
				return "", nil, "", fmt.Errorf("unterminated label set")
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return "", nil, "", fmt.Errorf("malformed label in %q", line)
			}
			ln := strings.TrimSpace(rest[:eq])
			rest = rest[eq+2:]
			var sb strings.Builder
			i := 0
			for ; i < len(rest); i++ {
				if rest[i] == '\\' && i+1 < len(rest) {
					switch rest[i+1] {
					case '\\':
						sb.WriteByte('\\')
					case '"':
						sb.WriteByte('"')
					case 'n':
						sb.WriteByte('\n')
					default:
						return "", nil, "", fmt.Errorf("bad escape in label value: %q", line)
					}
					i++
					continue
				}
				if rest[i] == '"' {
					break
				}
				sb.WriteByte(rest[i])
			}
			if i >= len(rest) {
				return "", nil, "", fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, Label{Name: ln, Value: sb.String()})
			rest = rest[i+1:]
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	} else {
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample line without value: %q", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("want `value [timestamp]` after name, got %q", rest)
	}
	return name, labels, fields[0], nil
}

// labelKey canonicalizes a label set for duplicate detection.
func labelKey(labels []Label) string {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for _, l := range ls {
		sb.WriteString(l.Name)
		sb.WriteByte('=')
		sb.WriteString(strconv.Quote(l.Value))
		sb.WriteByte(';')
	}
	return sb.String()
}

// LintExposition strictly validates Prometheus text exposition: every
// line must parse; TYPE may be declared at most once per family and
// before its samples; every sample must belong to a declared family
// (histogram samples via their _bucket/_sum/_count suffixes); metric and
// label names must match the exposition grammar; no two samples of a
// family may share a label set; histogram buckets must carry parseable
// `le` bounds with nondecreasing cumulative counts ending in a +Inf
// bucket that equals the family's _count. It is the test oracle the CI
// lint runs against the library's own /metrics output.
func LintExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	typ := map[string]string{}
	seen := map[string]map[string]float64{} // family -> labelKey -> value
	type bucketRow struct {
		le  float64
		cum float64
		key string // labels minus le
	}
	buckets := map[string][]bucketRow{}
	counts := map[string]float64{}
	sawSample := map[string]bool{}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
					return fmt.Errorf("line %d: malformed %s comment: %q", lineNo, fields[1], line)
				}
				continue // free-form comment
			}
			name := fields[2]
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric family name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				if _, dup := typ[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE declaration for family %q", lineNo, name)
				}
				if sawSample[name] {
					return fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
				typ[name] = fields[3]
			}
			continue
		}

		name, labels, valStr, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: unparseable value %q: %v", lineNo, valStr, err)
		}
		fam := baseFamily(name, typ)
		if _, ok := typ[fam]; !ok {
			return fmt.Errorf("line %d: sample %q belongs to no declared family", lineNo, name)
		}
		sawSample[fam] = true

		var le *float64
		rest := labels[:0:0]
		for _, l := range labels {
			if !validLabelName(l.Name) {
				return fmt.Errorf("line %d: invalid label name %q", lineNo, l.Name)
			}
			if l.Name == "le" && strings.HasSuffix(name, "_bucket") {
				v, err := strconv.ParseFloat(l.Value, 64)
				if err != nil {
					return fmt.Errorf("line %d: unparseable le bound %q", lineNo, l.Value)
				}
				le = &v
				continue
			}
			rest = append(rest, l)
		}

		key := name + "\x00" + labelKey(labels)
		if seen[fam] == nil {
			seen[fam] = map[string]float64{}
		}
		if _, dup := seen[fam][key]; dup {
			return fmt.Errorf("line %d: duplicate sample %q", lineNo, line)
		}
		seen[fam][key] = val

		if typ[fam] == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == nil {
					return fmt.Errorf("line %d: histogram bucket without le label: %q", lineNo, line)
				}
				buckets[fam] = append(buckets[fam], bucketRow{le: *le, cum: val, key: labelKey(rest)})
			case strings.HasSuffix(name, "_count"):
				counts[fam+"\x00"+labelKey(rest)] = val
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	for fam, rows := range buckets {
		byKey := map[string][]bucketRow{}
		for _, r := range rows {
			byKey[r.key] = append(byKey[r.key], r)
		}
		for key, rs := range byKey {
			sort.Slice(rs, func(i, j int) bool { return rs[i].le < rs[j].le })
			last := rs[len(rs)-1]
			if !math.IsInf(last.le, 1) {
				return fmt.Errorf("family %q: histogram without a +Inf bucket", fam)
			}
			for i := 1; i < len(rs); i++ {
				if rs[i].cum < rs[i-1].cum {
					return fmt.Errorf("family %q: bucket counts decrease at le=%v (%v -> %v)",
						fam, rs[i].le, rs[i-1].cum, rs[i].cum)
				}
			}
			if c, ok := counts[fam+"\x00"+key]; ok && c != last.cum {
				return fmt.Errorf("family %q: _count %v disagrees with +Inf bucket %v", fam, c, last.cum)
			}
		}
	}
	return nil
}
