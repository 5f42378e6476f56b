package svm

// rowLRU is a bounded least-recently-used cache of kernel-matrix rows,
// used when the training set is too large to keep every touched row.
// The solver concentrates its pair updates on the support vectors, and
// the LRU keeps exactly that set resident: every Get refreshes recency.
type rowLRU struct {
	cap  int
	m    map[int]*lruEntry
	head *lruEntry // most recently used
	tail *lruEntry // least recently used
}

type lruEntry struct {
	idx        int
	row        []float64
	prev, next *lruEntry
}

func newRowLRU(capacity int) *rowLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &rowLRU{cap: capacity, m: make(map[int]*lruEntry, capacity)}
}

// Get returns the cached row for training index i, refreshing its
// recency.
func (c *rowLRU) Get(i int) ([]float64, bool) {
	e, ok := c.m[i]
	if !ok {
		return nil, false
	}
	c.moveToFront(e)
	return e.row, true
}

// Put inserts (or refreshes) the row for training index i, evicting
// the least-recently-used row when the cache is full.
func (c *rowLRU) Put(i int, row []float64) {
	if e, ok := c.m[i]; ok {
		e.row = row
		c.moveToFront(e)
		return
	}
	if len(c.m) >= c.cap {
		c.evictLRU()
	}
	e := &lruEntry{idx: i, row: row}
	c.m[i] = e
	c.pushFront(e)
}

// Len returns the number of cached rows.
func (c *rowLRU) Len() int { return len(c.m) }

func (c *rowLRU) evictLRU() {
	if c.tail == nil {
		return
	}
	e := c.tail
	c.unlink(e)
	delete(c.m, e.idx)
}

func (c *rowLRU) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *rowLRU) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *rowLRU) moveToFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
