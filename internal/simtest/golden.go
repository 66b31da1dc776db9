package simtest

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata instead of comparing against them")

// Golden compares lines, rendered one per line of text, against the golden
// file at path. See GoldenBytes.
func Golden(t testing.TB, path string, lines []string) {
	t.Helper()
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	GoldenBytes(t, path, []byte(b.String()))
}

// GoldenBytes compares got byte for byte against the golden file at path,
// which is stored gzip-compressed when the path ends in ".gz". With the
// test-only -update flag it rewrites the file instead — and only when its
// content changed, so a compressed file is not churned by a different
// compressor build. Regenerate golden files only for an intentional change
// of the behaviour they pin.
func GoldenBytes(t testing.TB, path string, got []byte) {
	t.Helper()
	gz := strings.HasSuffix(path, ".gz")
	want, err := readGolden(path, gz)
	if *update {
		if err == nil && bytes.Equal(got, want) {
			return
		}
		if err := writeGolden(path, got, gz); err != nil {
			t.Fatalf("simtest: update golden %s: %v", path, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("simtest: golden %s: %v (create it with -update)", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of file>"
	}
	t.Errorf("%s differs from the golden file (%d vs %d bytes), first at line %d:\n  got:  %s\n  want: %s",
		path, len(got), len(want), i+1, line(gl), line(wl))
}

func readGolden(path string, gz bool) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil || !gz {
		return data, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func writeGolden(path string, data []byte, gz bool) error {
	if gz {
		var b bytes.Buffer
		zw, err := gzip.NewWriterLevel(&b, gzip.BestCompression)
		if err != nil {
			return err
		}
		if _, err := zw.Write(data); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		data = b.Bytes()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
