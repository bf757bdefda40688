package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"hsis/internal/core"
)

// artifactKey derives the content address of a design artifact: a
// SHA-256 over everything that determines the frontend's output — the
// source kind, the source text, the top module, and the property text.
// Backend options (engine, reordering, cone of influence) deliberately do NOT
// enter the key: they shape the per-job workspace, not the shared
// artifact. Length-prefixed fields keep the encoding injective.
func artifactKey(kind, src, top, pif string) string {
	h := sha256.New()
	field := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	field("hsisd-artifact-v1")
	field(kind)
	field(src)
	field(top)
	field(pif)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheCall is one in-flight compilation, shared by every job that asks
// for the same key while it runs (singleflight).
type cacheCall struct {
	done chan struct{}
	d    *core.CompiledDesign
	err  error
}

// artifactCache is the content-addressed LRU of compiled design
// artifacts. Entries are read-only once published (CompiledDesign is
// sealed), so a cache hit hands the same pointer to any number of
// concurrent jobs. Compile errors are never cached: a failed key is
// re-attempted on the next submission.
type artifactCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*cacheCall

	hits, misses, evictions int64
}

type cacheEntry struct {
	key string
	d   *core.CompiledDesign
}

func newArtifactCache(capacity int) *artifactCache {
	if capacity < 1 {
		capacity = 1
	}
	return &artifactCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*cacheCall),
	}
}

// getOrCompile returns the artifact for key, compiling it at most once
// per concurrent wave of requests. hit reports whether the frontend was
// skipped (a cached entry or a ride on another job's in-flight
// compile).
func (c *artifactCache) getOrCompile(key string, compile func() (*core.CompiledDesign, error)) (d *core.CompiledDesign, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry).d, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-call.done
		return call.d, true, call.err
	}
	call := &cacheCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.misses++
	c.mu.Unlock()

	call.d, call.err = compile()
	close(call.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.insert(key, call.d)
	}
	c.mu.Unlock()
	return call.d, false, call.err
}

// insert publishes a freshly compiled artifact, evicting from the LRU
// tail past capacity. Caller holds c.mu.
func (c *artifactCache) insert(key string, d *core.CompiledDesign) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).d = d
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, d: d})
	for c.order.Len() > c.capacity {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// stats snapshots the cache counters.
func (c *artifactCache) stats() (entries int, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses, c.evictions
}
