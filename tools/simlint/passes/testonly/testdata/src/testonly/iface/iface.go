// Package iface holds methods reached only through interfaces: no
// static reference names them, yet each is a program's call.
// simlint-fixture: clean
package iface

import (
	"container/heap"
	"flag"
	"sort"
	"strings"
)

// byLen satisfies sort.Interface.
type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// minHeap satisfies heap.Interface on top of sort.Interface.
type minHeap []int

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *minHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// list satisfies flag.Value.
type list []string

func (l *list) String() string     { return strings.Join(*l, ",") }
func (l *list) Set(v string) error { *l = append(*l, v); return nil }

// Failure satisfies error.
type Failure struct{ Reason string }

func (f Failure) Error() string { return f.Reason }

func use() error {
	sort.Sort(byLen{"bb", "a"})
	h := &minHeap{3, 1}
	heap.Init(h)
	heap.Push(h, 2)
	var l list
	flag.Var(&l, "item", "repeatable")
	return Failure{"done"}
}
