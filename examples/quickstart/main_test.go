package main

import (
	"io"
	"os"
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

// TestQuickstartVerifiesEveryVariant runs README's first program as it
// stands: each of its three variants' outputs must match reference
// inference.
func TestQuickstartVerifiesEveryVariant(t *testing.T) {
	out := stdoutOf(t, main)
	if n := strings.Count(out, "verified=true"); n != 3 || strings.Contains(out, "verified=false") {
		t.Fatalf("%d verified variants, want 3:\n%s", n, out)
	}
}
