package ds

// MinHeap is a binary min-heap of (priority, value) pairs used by the
// weighted temporal shortest-path search (a Dijkstra variant over the
// unfolded graph). It is specialised to float64 priorities to avoid the
// interface indirection of container/heap on the hot path.
type MinHeap struct {
	prio []float64
	val  []int
}

// NewMinHeap returns a heap with capacity pre-allocated for n items.
func NewMinHeap(n int) *MinHeap {
	return &MinHeap{prio: make([]float64, 0, n), val: make([]int, 0, n)}
}

// Len returns the number of items on the heap.
func (h *MinHeap) Len() int { return len(h.prio) }

// Push adds an item with the given priority.
func (h *MinHeap) Push(prio float64, v int) {
	h.prio = append(h.prio, prio)
	h.val = append(h.val, v)
	h.up(len(h.prio) - 1)
}

// Pop removes and returns the item with the minimum priority.
func (h *MinHeap) Pop() (prio float64, v int) {
	n := len(h.prio) - 1
	prio, v = h.prio[0], h.val[0]
	h.prio[0], h.val[0] = h.prio[n], h.val[n]
	h.prio, h.val = h.prio[:n], h.val[:n]
	if n > 0 {
		h.down(0)
	}
	return prio, v
}

func (h *MinHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.prio[p] <= h.prio[i] {
			return
		}
		h.swap(p, i)
		i = p
	}
}

func (h *MinHeap) down(i int) {
	n := len(h.prio)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.prio[l] < h.prio[m] {
			m = l
		}
		if r < n && h.prio[r] < h.prio[m] {
			m = r
		}
		if m == i {
			return
		}
		h.swap(m, i)
		i = m
	}
}

func (h *MinHeap) swap(i, j int) {
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.val[i], h.val[j] = h.val[j], h.val[i]
}
