package service

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/dom"
)

// PageKey is the content address of a page body: its SHA-256 digest.
type PageKey = [sha256.Size]byte

// PageCache is a content-addressed LRU of parsed documents. extractd's
// traffic re-posts the same HTML bodies constantly — lifecycle
// re-evaluations, batch retries, monitoring probes — and dom.Parse is by
// far the most expensive step of an extraction once rule evaluation is
// cheap, so keying parsed trees by body hash lets repeated requests skip
// the parser entirely.
//
// Cached documents are shared between concurrent extractions, which is
// safe because extraction only reads the tree. Anything that mutates a document must clone it
// first; nothing in the service layer does.
type PageCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	m        map[PageKey]*list.Element
}

type cacheEntry struct {
	key  PageKey
	doc  *dom.Node
	size int64
}

// DefaultPageCacheBytes bounds the cache by source-body bytes as well as
// by document count, so 256 near-MaxBody pages cannot pin gigabytes of
// parsed trees. Sizes are the HTML byte lengths callers pass to Put — a
// deliberate proxy (a parsed tree is a small multiple of its source), so
// treat the cap as an order-of-magnitude budget, not an exact RSS limit.
const DefaultPageCacheBytes int64 = 256 << 20

// NewPageCache creates a cache retaining up to max parsed documents and
// at most DefaultPageCacheBytes of source bytes (tune with SetMaxBytes).
// max <= 0 yields a nil cache (disabled).
func NewPageCache(max int) *PageCache {
	if max <= 0 {
		return nil
	}
	return &PageCache{
		max:      max,
		maxBytes: DefaultPageCacheBytes,
		ll:       list.New(),
		m:        make(map[PageKey]*list.Element, max),
	}
}

// SetMaxBytes replaces the byte budget. n <= 0 removes the byte bound
// (the document-count bound always applies).
func (c *PageCache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
	c.evictLocked()
}

// PageKeyOf hashes a page body into its cache key.
func PageKeyOf(body []byte) PageKey { return sha256.Sum256(body) }

// Get returns the cached document for key, marking it most recently used.
func (c *PageCache) Get(key PageKey) (*dom.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).doc, true
}

// Put stores a parsed document under key, evicting least recently used
// entries beyond either bound (document count or source bytes). size is
// the source-body byte length of doc. Re-putting an existing key
// refreshes it.
func (c *PageCache) Put(key PageKey, doc *dom.Node, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.doc, e.size = doc, size
		c.ll.MoveToFront(el)
		c.evictLocked()
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, doc: doc, size: size})
	c.bytes += size
	c.evictLocked()
}

// evictLocked drops LRU entries until both bounds hold. The most recent
// entry always stays, so one oversized page degrades the cache to a
// single slot instead of churning uselessly.
func (c *PageCache) evictLocked() {
	for c.ll.Len() > 1 &&
		(c.ll.Len() > c.max || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		c.bytes -= e.size
		delete(c.m, e.key)
	}
}

// Len returns the number of cached documents.
func (c *PageCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
