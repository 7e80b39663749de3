package core

import (
	"fmt"
	"strings"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/s3"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/collective"
	"fsdinference/internal/sim"
	"fsdinference/internal/wire"
)

// objectChannel implements FSD-Inf-Object (Algorithm 2): each worker writes
// a single object per target per layer — "{m}_{n}.dat" with data, or a
// zero-byte "{m}_{n}.nul" when it has nothing to communicate — into the
// target-keyed bucket bucket-{n%B} under the "{layer}/{n}/" prefix. Targets
// repeatedly LIST their own prefix, skip ".nul" markers and already-received
// sources, and GET the remaining objects from parallel threads. Multiple
// buckets and prefixes spread I/O to stay inside provider API quotas.
type objectChannel struct{}

func openObject(*worker) channel { return objectChannel{} }

// numBuckets is the number of parallel object buckets (bucket-{n%10} in
// Algorithm 2).
const numBuckets = 10

// provisionBuckets creates the target-keyed buckets a priori (free to keep).
func provisionBuckets(d *Deployment) error {
	d.buckets = make([]*s3.Bucket, numBuckets)
	for b := range d.buckets {
		d.buckets[b] = d.Env.S3.CreateBucket(fmt.Sprintf("%s-bucket-%d", d.prefix, b))
	}
	return nil
}

func objectTraits(_ Config, ec env.Config, _ int64) collective.Traits {
	return objectRouteTraits(ec, commThreads)
}

// objectRouteTraits is one value's path through object storage — PUT, the
// LIST that finds it, GET — from a fan-wide transfer pool; the bandwidth is
// the harmonic mean of the upload and download rates.
func objectRouteTraits(ec env.Config, fan int) collective.Traits {
	return collective.Traits{
		PerMsg:      ec.S3.PutLatency + ec.S3.ListLatency + ec.S3.GetLatency,
		BytesPerSec: 2 / (1/ec.S3.PutBytesPerSec + 1/ec.S3.GetBytesPerSec),
		Fan:         fan,
	}
}

// predictObject is §IV-C's request count for one query: per layer, one PUT
// and one GET per pair, and LISTs amortised to about one per target, a
// quarter of one per pair, since scans overlap other workers' write phases.
func predictObject(w Workload, _ Config) (usage.Meter, error) {
	n := w.PairsPerLayer * int64(w.Layers)
	return usage.Meter{S3PutCalls: n, S3GetCalls: n, S3ListCalls: (n + 3) / 4}, nil
}

// bucketFor returns the bucket that holds what is addressed to worker id
// (bucket-{n%B}): senders route by target, receivers read their own.
func (w *worker) bucketFor(id int32) *s3.Bucket {
	return w.d.buckets[int(id)%len(w.d.buckets)]
}

// objectPut is one object a send writes.
type objectPut struct {
	bucket *s3.Bucket
	key    string
	body   []byte
}

// putAll writes puts in order from a width-wide thread pool named name,
// charging the run a PUT (V in Equation (7)) for each and its bytes once
// the store holds them.
func putAll(w *worker, name string, width int, puts []objectPut) error {
	u := &w.run.usage
	u.S3PutCalls += int64(len(puts))
	return w.threadsN(name, width, len(puts), func(p *sim.Proc, i int) error {
		if err := putObject(puts[i].bucket, p, puts[i].key, puts[i].body); err != nil {
			return err
		}
		u.S3BytesIn += int64(len(puts[i].body))
		return nil
	})
}

// putObject is (*s3.Bucket).Put, a variable so that a test can watch every
// frame a run hands the store: the bucket keeps the slice, so nothing may
// write to a frame once it is put.
var putObject = (*s3.Bucket).Put

// getBodies GETs keys from bucket through a width-wide thread pool named
// name, charging the run a GET (R in Equation (7)) for each and the bytes
// each returns; bodies[i] is the object under keys[i], shared with the
// store and read-only (wire.Decode retains it as the decoded set's frame).
func (w *worker) getBodies(name string, width int, bucket *s3.Bucket, keys []string) ([][]byte, error) {
	bodies := make([][]byte, len(keys))
	u := &w.run.usage
	u.S3GetCalls += int64(len(keys))
	return bodies, w.threadsN(name, width, len(keys), func(p *sim.Proc, i int) error {
		b, err := bucket.View(p, keys[i])
		if err != nil {
			return err
		}
		u.S3BytesOut += int64(len(b))
		bodies[i] = b
		return nil
	})
}

// objectPrefix is the "{run}/{kind}/{layer}/{target}/" prefix a target
// scans for one tag.
func objectPrefix(w *worker, t tag, target int32) string {
	return fmt.Sprintf("%s/%s/%d/%d/", w.run.id, t.kind, t.layer, target)
}

func objectKey(w *worker, t tag, src, target int32, ext string) string {
	return fmt.Sprintf("%s%d_%d%s", objectPrefix(w, t, target), src, target, ext)
}

// send writes one object for each (target, rows) entry from the thread pool.
func (objectChannel) send(w *worker, t tag, outs []targetRows) error {
	puts := make([]objectPut, 0, len(outs))
	for _, out := range outs {
		ext, body := ".nul", []byte(nil)
		if out.rs.Len() > 0 {
			var err error
			if body, err = w.encodeFrame(out.rs); err != nil {
				return err
			}
			ext = ".dat"
			w.metrics.BytesSent += int64(len(body))
		}
		w.metrics.MessagesSent++
		puts = append(puts, objectPut{w.bucketFor(out.target), objectKey(w, t, w.id, out.target, ext), body})
	}
	return putAll(w, "put", commThreads, puts)
}

func (oc objectChannel) gather(w *worker, t tag, sources []int32, deliver func(src int32, rs *wire.RowSet)) error {
	return w.gatherLoop(t, sources, oc, decodePayload, deliver)
}

// poll is the object store's arrival source (Algorithm 2 lines 10-21): scan
// the worker's single bucket/prefix, ignore files from foreign or
// already-received sources, take a ".nul" marker as an arrival with nothing
// to read (line 14), and fetch the rest in parallel threads.
func (objectChannel) poll(w *worker, g *gathering) error {
	bucket := w.bucketFor(w.id)
	keys := bucket.List(w.ctx.P, objectPrefix(w, g.tag, w.id))
	w.run.usage.S3ListCalls++
	var fetch []string
	var fetchSrc []int32
	for _, key := range keys {
		src, ext, ok := parseObjectKey(key)
		if !ok || !g.wants(src) {
			continue
		}
		if ext == ".nul" {
			if err := g.arrive(w, arrival{tag: g.tag, src: src, chunks: 1}); err != nil {
				return err
			}
			continue
		}
		fetch = append(fetch, key)
		fetchSrc = append(fetchSrc, src)
	}
	w.metrics.Fetches += int64(len(fetch))
	bodies, err := w.getBodies("get", commThreads, bucket, fetch)
	if err != nil {
		return err
	}
	for i, body := range bodies {
		if err := g.arrive(w, arrival{tag: g.tag, src: fetchSrc[i], chunks: 1, body: body}); err != nil {
			return err
		}
	}
	return nil
}

// parseObjectKey extracts the source worker id and extension from a
// ".../{src}_{target}.{dat|nul}" object key.
func parseObjectKey(key string) (src int32, ext string, ok bool) {
	base := key[strings.LastIndexByte(key, '/')+1:]
	switch {
	case strings.HasSuffix(base, ".dat"):
		ext = ".dat"
	case strings.HasSuffix(base, ".nul"):
		ext = ".nul"
	default:
		return 0, "", false
	}
	digits, _, found := strings.Cut(strings.TrimSuffix(base, ext), "_")
	n, ok := parseDecimal(digits)
	if !found || !ok {
		return 0, "", false
	}
	return int32(n), ext, true
}
