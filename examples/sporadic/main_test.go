package main

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// stdoutOf runs f with os.Stdout redirected and returns what it printed.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	f()
	w.Close()
	return <-out
}

// TestSporadicFSDUndercutsAlwaysOn runs the example as it stands: at every
// daily volume the measured FSD bill is below the always-on fleet's, and
// the largest volume's replay fails no query.
func TestSporadicFSDUndercutsAlwaysOn(t *testing.T) {
	out := stdoutOf(t, main)
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		fsd, err1 := strconv.ParseFloat(f[1], 64)
		ao, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || fsd >= ao {
			t.Errorf("%s queries/day: FSD $%s, always-on $%s", f[0], f[1], f[2])
		}
		rows++
	}
	if rows != 3 {
		t.Errorf("%d volume rows, want 3", rows)
	}
	if _, report, _ := strings.Cut(out, "serving report:"); !strings.HasPrefix(report, " 1000 queries (32000 samples), 0 failed,") {
		t.Errorf("the largest volume's replay does not report 1000 queries and 0 failed")
	}
	if t.Failed() {
		t.Log(out)
	}
}
