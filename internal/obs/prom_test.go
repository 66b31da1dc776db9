package obs

import (
	"bytes"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestPromGolden pins the Prometheus text exposition of the shared golden
// registry byte-for-byte. Regenerate deliberately with
// go test ./internal/obs -run TestPromGolden -update.
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot(sim.Time(1.0)).WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	simtest.GoldenBytes(t, filepath.Join("testdata", "prom_golden.txt"), buf.Bytes())
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromText is a strict parser for the subset of the text format the
// writer emits: HELP/TYPE comments followed by sample lines. It fails the
// test on any malformed line, so it doubles as a format validator.
func parsePromText(t *testing.T, text string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		series := line[:sp]
		s := promSample{labels: map[string]string{}, value: v}
		if open := strings.IndexByte(series, '{'); open >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
			s.name = series[:open]
			body := series[open+1 : len(series)-1]
			for body != "" {
				eq := strings.IndexByte(body, '=')
				if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
					t.Fatalf("malformed label pair in %q", line)
				}
				key := body[:eq]
				// Scan the quoted value honoring backslash escapes.
				var val strings.Builder
				i := eq + 2
				for ; i < len(body) && body[i] != '"'; i++ {
					if body[i] == '\\' {
						i++
						if i >= len(body) {
							t.Fatalf("dangling escape in %q", line)
						}
						switch body[i] {
						case 'n':
							val.WriteByte('\n')
						case '\\', '"':
							val.WriteByte(body[i])
						default:
							t.Fatalf("unknown escape \\%c in %q", body[i], line)
						}
						continue
					}
					val.WriteByte(body[i])
				}
				if i >= len(body) {
					t.Fatalf("unterminated label value in %q", line)
				}
				s.labels[key] = val.String()
				body = body[i+1:]
				body = strings.TrimPrefix(body, ",")
			}
		} else {
			s.name = series
		}
		samples = append(samples, s)
	}
	return samples, types
}

// TestPromRoundTrip parses the exposition back and checks the structural
// guarantees the writer promises: sorted families, every sample covered by
// a TYPE comment, and cumulative histogram buckets whose +Inf bucket equals
// the _count series.
func TestPromRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot(sim.Time(1.0)).WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, types := parsePromText(t, buf.String())
	if len(samples) == 0 || len(types) == 0 {
		t.Fatal("empty exposition")
	}

	var families []string
	for n := range types {
		families = append(families, n)
	}
	sort.Strings(families)
	// Families must appear in sorted order in the text.
	var seen []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen = append(seen, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(seen) {
		t.Fatalf("families not sorted: %v", seen)
	}

	histFamily := func(name string) (string, bool) {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && types[f] == "histogram" {
				return f, true
			}
		}
		return "", false
	}
	// Every sample belongs to a declared family of the right type.
	counts := map[string]float64{}
	infs := map[string]float64{}
	buckets := map[string][]promSample{}
	for _, s := range samples {
		fam, isHist := histFamily(s.name)
		if !isHist {
			if _, ok := types[s.name]; !ok {
				t.Fatalf("sample %q has no TYPE declaration", s.name)
			}
			continue
		}
		key := fam + labelFingerprint(s.labels, "le")
		switch {
		case strings.HasSuffix(s.name, "_count"):
			counts[key] = s.value
		case strings.HasSuffix(s.name, "_bucket"):
			if s.labels["le"] == "+Inf" {
				infs[key] = s.value
			} else {
				buckets[key] = append(buckets[key], s)
			}
		}
	}
	if len(counts) == 0 {
		t.Fatal("no histogram series in golden registry exposition")
	}
	for key, n := range counts {
		if infs[key] != n {
			t.Errorf("%s: +Inf bucket %g != count %g", key, infs[key], n)
		}
		bs := buckets[key]
		sort.Slice(bs, func(i, j int) bool {
			li, _ := strconv.ParseFloat(bs[i].labels["le"], 64)
			lj, _ := strconv.ParseFloat(bs[j].labels["le"], 64)
			return li < lj
		})
		prev := 0.0
		for _, b := range bs {
			if b.value < prev {
				t.Errorf("%s: bucket le=%s not cumulative (%g < %g)", key, b.labels["le"], b.value, prev)
			}
			prev = b.value
		}
		if len(bs) > 0 && bs[len(bs)-1].value > n {
			t.Errorf("%s: last finite bucket %g exceeds count %g", key, bs[len(bs)-1].value, n)
		}
	}
}

// labelFingerprint renders a label set (minus the skipped key) in sorted
// order, for grouping histogram series.
func labelFingerprint(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString("|" + k + "=" + labels[k])
	}
	return b.String()
}

// TestPromEscaping pins the escaping of label values containing backslash,
// quote, and newline, and verifies the parser recovers the original bytes.
func TestPromEscaping(t *testing.T) {
	r := NewRegistry()
	nasty := "a\\b\"c\nd"
	r.Counter("faults{kind=" + nasty + ",phase=x}").Add(1)
	var buf bytes.Buffer
	if err := r.Snapshot(0).WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	wantLine := `anthill_faults_total{kind="a\\b\"c\nd",phase="x"} 1`
	if !strings.Contains(buf.String(), wantLine+"\n") {
		t.Fatalf("escaped line missing.\nwant %q in:\n%s", wantLine, buf.String())
	}
	samples, _ := parsePromText(t, buf.String())
	if len(samples) != 1 || samples[0].labels["kind"] != nasty {
		t.Fatalf("round-trip lost escaping: %+v", samples)
	}
}
