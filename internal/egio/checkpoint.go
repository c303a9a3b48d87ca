package egio

// Checkpoint layout (DESIGN.md §14). A checkpoint persists one *built*
// graph — the per-stamp snapshots and the per-node active-stamp rows,
// the storage Builder.Build produces — as dense, page-aligned typed
// sections behind a CRC'd header, section table and footer. A
// restarting server mmaps the file and assembles the graph around the
// sections without copying; the flat CSR view is not stored, and is
// built on first use like every other graph's (EnsureCSR). Opening
// costs the CRCs and the structural checks, O(file size).
//
//	header   (64 B)   magic "EGCP", version, flags, byte-order mark,
//	                  N, T, numActive, walSeq, fileSize, labelCount,
//	                  sectionCount, CRC32 over the header bytes
//	table    (24 B ×) per section: kind, CRC32, offset, length
//	tableCRC (4 B)
//	sections          each offset page-aligned (4096), zero padding
//	                  between; lengths are exact multiples of the
//	                  element size
//	footer   (16 B)   magic echo + header/table CRC echoes + CRC —
//	                  its presence at fileSize-16 proves the file is
//	                  complete even if a copy was truncated
//
// Sections are written in the machine's native byte order and aliased
// back as typed slices on read (the byte-order mark rejects
// foreign-endian files). Validation is two-layered: CRCs catch
// corruption, and a full structural pass (monotone bounded ptr rows,
// in-range adjacency, bitset/active-row agreement) catches crafted or
// stale-but-CRC-valid content, so a graph assembled from a checkpoint
// can never index out of bounds no matter what the file contains.
// Writers go through a temp file + rename so a partial checkpoint is
// never observed under the final name.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/ds"
	"repro/internal/egraph"
	"repro/internal/fault"
)

const (
	ckptMagic       = "EGCP"
	ckptVersion     = 2
	ckptBOM         = uint32(0x01020304)
	ckptPage        = 4096
	ckptHeaderLen   = 64
	ckptSecEntryLen = 24
	ckptFooterLen   = 16

	ckptFlagDirected = 1 << 0
	ckptFlagWeighted = 1 << 1
)

// Section kinds, in file order. Snapshot sections concatenate the
// per-stamp arrays (ptr rows are N+1 entries per stamp); the actPtr and
// actStamps sections are the per-node active-stamp rows, flattened.
const (
	secTimes      = 1  // T × i64 stamp labels, strictly increasing
	secLabels     = 2  // L × i64 registered ingest labels, strictly increasing
	secSnapOutPtr = 3  // T×(N+1) × i32
	secSnapOutAdj = 4  // ΣoutArcs × i32
	secSnapInPtr  = 5  // T×(N+1) × i32
	secSnapInAdj  = 6  // ΣinArcs × i32
	secSnapOutW   = 7  // ΣoutArcs × f64, weighted graphs only
	secSnapInW    = 8  // ΣinArcs × f64, weighted graphs only
	secSnapActive = 9  // T × ceil(N/64) × u64 bitset words
	secActPtr     = 14 // N+1 × i32
	secActStamps  = 15 // numActive × i32
)

var ckptSectionNames = map[uint32]string{
	secTimes: "times", secLabels: "labels",
	secSnapOutPtr: "snapOutPtr", secSnapOutAdj: "snapOutAdj",
	secSnapInPtr: "snapInPtr", secSnapInAdj: "snapInAdj",
	secSnapOutW: "snapOutW", secSnapInW: "snapInW",
	secSnapActive: "snapActive",
	secActPtr:     "actPtr", secActStamps: "actStamps",
}

func ckptSectionName(kind uint32) string {
	if s, ok := ckptSectionNames[kind]; ok {
		return s
	}
	return fmt.Sprintf("kind%d", kind)
}

// CheckpointMeta is what a checkpoint records beyond the graph itself.
type CheckpointMeta struct {
	// WALSeq is the WAL batch sequence this checkpoint covers: recovery
	// replays only batches ≥ WALSeq on top of the checkpointed graph.
	WALSeq uint64
	// Labels is the full registered time-label set (graph labels plus
	// empty-stamp extras), so a recovered server keeps accepting writes
	// at labels whose last arc was removed.
	Labels []int64

	// Faults, when non-nil, arms the checkpoint writer's injection
	// sites: ckpt.write (mid-way through the section writes, with the
	// partial temp file flushed to disk), ckpt.fsync (before the temp
	// file's fsync) and ckpt.rename (between fsync and the atomic
	// rename). An injected error aborts the write exactly like the real
	// failure it models — the previous checkpoint generation stays
	// intact — and a delay rule holds the write open at that point, the
	// window crash tests SIGKILL inside.
	Faults *fault.Injector
}

// CheckpointInfo describes a parsed checkpoint.
type CheckpointInfo struct {
	WALSeq    uint64
	Labels    []int64
	Directed  bool
	Weighted  bool
	Nodes     int
	Stamps    int
	NumActive int
	Bytes     int64
}

type ckptSection struct {
	kind   uint32
	chunks [][]byte
	length uint64
	offset uint64
	crc    uint32
}

// sliceBytes aliases a typed slice as raw bytes (native byte order).
func sliceBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

// bitsetWords returns exactly want words of the set's storage: a
// prefix when the backing slice is longer (a set sized for a wider
// universe), a zero-padded copy when it is shorter.
func bitsetWords(b *ds.BitSet, want int) []uint64 {
	w := b.Words()
	if len(w) >= want {
		return w[:want]
	}
	out := make([]uint64, want)
	copy(out, w)
	return out
}

// WriteCheckpoint persists g (snapshots + active-stamp rows) to path
// via a temp file and an atomic rename, fsyncing both the file and its
// directory. It returns the checkpoint's size in bytes. The graph's
// flat CSR view is neither needed nor built.
func WriteCheckpoint(path string, g *egraph.IntEvolvingGraph, meta CheckpointMeta) (int64, error) {
	raw := g.Raw()
	n, t := raw.NumNodes, len(raw.Snaps)
	wN := (n + 63) / 64

	labels := append([]int64(nil), meta.Labels...)
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	labels = dedupInt64(labels)

	flags := uint16(0)
	if raw.Directed {
		flags |= ckptFlagDirected
	}
	if raw.Weighted {
		flags |= ckptFlagWeighted
	}

	secs := make([]*ckptSection, 0, 11)
	add := func(kind uint32, chunks ...[]byte) {
		secs = append(secs, &ckptSection{kind: kind, chunks: chunks})
	}
	add(secTimes, sliceBytes(raw.Times))
	add(secLabels, sliceBytes(labels))
	outPtr := make([][]byte, t)
	outAdj := make([][]byte, t)
	inPtr := make([][]byte, t)
	inAdj := make([][]byte, t)
	outW := make([][]byte, t)
	inW := make([][]byte, t)
	act := make([][]byte, t)
	for i, s := range raw.Snaps {
		// Rows may be wider than n+1 after Patch shrank the universe;
		// the entries past node n-1 describe no arcs and are not stored.
		if len(s.OutPtr) < n+1 || len(s.InPtr) < n+1 {
			return 0, fmt.Errorf("egio: checkpoint: snapshot %d ptr rows have %d/%d entries, want at least %d", i, len(s.OutPtr), len(s.InPtr), n+1)
		}
		wantArcs := s.Edges
		if !raw.Directed {
			wantArcs *= 2
		}
		if len(s.OutAdj) != wantArcs {
			return 0, fmt.Errorf("egio: checkpoint: snapshot %d has %d out-arcs for %d edges (directed=%t)", i, len(s.OutAdj), s.Edges, raw.Directed)
		}
		outPtr[i] = sliceBytes(s.OutPtr[:n+1])
		outAdj[i] = sliceBytes(s.OutAdj)
		inPtr[i] = sliceBytes(s.InPtr[:n+1])
		inAdj[i] = sliceBytes(s.InAdj)
		outW[i] = sliceBytes(s.OutW)
		inW[i] = sliceBytes(s.InW)
		act[i] = sliceBytes(bitsetWords(s.Active, wN))
	}
	add(secSnapOutPtr, outPtr...)
	add(secSnapOutAdj, outAdj...)
	add(secSnapInPtr, inPtr...)
	add(secSnapInAdj, inAdj...)
	if raw.Weighted {
		add(secSnapOutW, outW...)
		add(secSnapInW, inW...)
	}
	add(secSnapActive, act...)
	actPtr := make([]int32, n+1)
	actStamps := make([]int32, 0, raw.NumActive)
	for v := 0; v < n; v++ {
		actStamps = append(actStamps, g.ActiveStamps(int32(v))...)
		actPtr[v+1] = int32(len(actStamps))
	}
	add(secActPtr, sliceBytes(actPtr))
	add(secActStamps, sliceBytes(actStamps))

	// Lengths, CRCs and page-aligned offsets.
	cur := uint64(ckptHeaderLen + len(secs)*ckptSecEntryLen + 4)
	cur = (cur + ckptPage - 1) &^ uint64(ckptPage-1)
	for _, s := range secs {
		crc := uint32(0)
		for _, c := range s.chunks {
			s.length += uint64(len(c))
			crc = crc32.Update(crc, crc32.IEEETable, c)
		}
		s.crc = crc
		s.offset = cur
		cur = (cur + s.length + ckptPage - 1) &^ uint64(ckptPage-1)
	}
	last := secs[len(secs)-1]
	fileSize := last.offset + last.length + ckptFooterLen

	// Header and table.
	ne := binary.NativeEndian
	header := make([]byte, ckptHeaderLen)
	copy(header[0:4], ckptMagic)
	ne.PutUint16(header[4:6], ckptVersion)
	ne.PutUint16(header[6:8], flags)
	ne.PutUint32(header[8:12], ckptBOM)
	ne.PutUint32(header[12:16], uint32(len(secs)))
	ne.PutUint64(header[16:24], uint64(n))
	ne.PutUint64(header[24:32], uint64(t))
	ne.PutUint64(header[32:40], uint64(raw.NumActive))
	ne.PutUint64(header[40:48], meta.WALSeq)
	ne.PutUint64(header[48:56], fileSize)
	ne.PutUint32(header[56:60], uint32(len(labels)))
	ne.PutUint32(header[60:64], crc32.ChecksumIEEE(header[:60]))
	table := make([]byte, len(secs)*ckptSecEntryLen+4)
	for i, s := range secs {
		e := table[i*ckptSecEntryLen:]
		ne.PutUint32(e[0:4], s.kind)
		ne.PutUint32(e[4:8], s.crc)
		ne.PutUint64(e[8:16], s.offset)
		ne.PutUint64(e[16:24], s.length)
	}
	ne.PutUint32(table[len(secs)*ckptSecEntryLen:], crc32.ChecksumIEEE(table[:len(secs)*ckptSecEntryLen]))
	footer := make([]byte, ckptFooterLen)
	copy(footer[0:4], ckptMagic)
	ne.PutUint32(footer[4:8], ne.Uint32(header[60:64]))
	ne.PutUint32(footer[8:12], ne.Uint32(table[len(secs)*ckptSecEntryLen:]))
	ne.PutUint32(footer[12:16], crc32.ChecksumIEEE(footer[:12]))

	// Temp-then-rename: a crash at any point leaves either the old
	// checkpoint or a *.tmp nobody reads — never a short file under
	// the final name.
	tmp := path + ".ckpt-tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	w := bufio.NewWriterSize(f, 1<<20)
	written := uint64(0)
	emit := func(b []byte) error {
		nw, werr := w.Write(b)
		written += uint64(nw)
		return werr
	}
	pad := func(to uint64) error {
		var zeros [ckptPage]byte
		for written < to {
			chunk := to - written
			if chunk > ckptPage {
				chunk = ckptPage
			}
			if err := emit(zeros[:chunk]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(header); err != nil {
		f.Close()
		return 0, err
	}
	if err := emit(table); err != nil {
		f.Close()
		return 0, err
	}
	for i, s := range secs {
		if err := pad(s.offset); err != nil {
			f.Close()
			return 0, err
		}
		for _, c := range s.chunks {
			if err := emit(c); err != nil {
				f.Close()
				return 0, err
			}
		}
		if i == len(secs)/2 && meta.Faults != nil {
			// Crash/fault window: make sure the partial prefix is on
			// disk, then let a ckpt.write rule hold it open (so a
			// SIGKILL lands mid-write) or abort here with an error.
			w.Flush()
			if err := meta.Faults.Fire(fault.CkptWrite); err != nil {
				f.Close()
				return 0, err
			}
		}
	}
	if err := emit(footer); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if written != fileSize {
		f.Close()
		return 0, fmt.Errorf("egio: checkpoint: wrote %d bytes, expected %d", written, fileSize)
	}
	if err := meta.Faults.Fire(fault.CkptFsync); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := meta.Faults.Fire(fault.CkptRename); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync() // best-effort: make the rename itself durable
		d.Close()
	}
	return int64(fileSize), nil
}

func dedupInt64(s []int64) []int64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// view aliases count elements of type T at data[off:]. Bounds are the
// caller's responsibility (the section table is validated first); the
// base pointer must be 8-byte aligned.
func view[T any](data []byte, off, length uint64) []T {
	if length == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*T)(unsafe.Pointer(&data[off])), int(length)/int(unsafe.Sizeof(t)))
}

// ParseCheckpoint validates data as a checkpoint and assembles the
// graph around it with zero copying: every slice of the result aliases
// data, so data must stay valid (and unmodified) for the graph's
// lifetime. The result has no flat CSR view yet; Graph.CSR builds it
// from the validated snapshots on first use.
//
// Errors carry the byte offset and the expected/actual values, and the
// validation pass is total: any input for
// which ParseCheckpoint returns nil error yields a graph whose query
// surface cannot index out of bounds.
func ParseCheckpoint(data []byte) (*egraph.IntEvolvingGraph, *CheckpointInfo, error) {
	if len(data) < ckptHeaderLen {
		return nil, nil, fmt.Errorf("egio: checkpoint truncated: %d bytes, want at least %d for the header", len(data), ckptHeaderLen)
	}
	ne := binary.NativeEndian
	if string(data[0:4]) != ckptMagic {
		return nil, nil, fmt.Errorf("egio: checkpoint bad magic at offset 0: got %q, want %q", data[0:4], ckptMagic)
	}
	if v := ne.Uint16(data[4:6]); v != ckptVersion {
		return nil, nil, fmt.Errorf("egio: checkpoint unsupported version at offset 4: got %d, want %d", v, ckptVersion)
	}
	flags := ne.Uint16(data[6:8])
	if flags&^(ckptFlagDirected|ckptFlagWeighted) != 0 {
		return nil, nil, fmt.Errorf("egio: checkpoint unknown flags at offset 6: %#04x", flags)
	}
	if bom := ne.Uint32(data[8:12]); bom != ckptBOM {
		return nil, nil, fmt.Errorf("egio: checkpoint byte-order mark at offset 8: got %#08x, want %#08x (written on a different-endian machine?)", bom, ckptBOM)
	}
	if got, want := ne.Uint32(data[60:64]), crc32.ChecksumIEEE(data[:60]); got != want {
		return nil, nil, fmt.Errorf("egio: checkpoint header CRC mismatch at offset 60: got %#08x, want %#08x", got, want)
	}
	secCount := int(ne.Uint32(data[12:16]))
	n64 := ne.Uint64(data[16:24])
	t64 := ne.Uint64(data[24:32])
	a64 := ne.Uint64(data[32:40])
	walSeq := ne.Uint64(data[40:48])
	fileSize := ne.Uint64(data[48:56])
	labelCount := uint64(ne.Uint32(data[56:60]))
	if fileSize != uint64(len(data)) {
		return nil, nil, fmt.Errorf("egio: checkpoint length mismatch: header says %d bytes, have %d", fileSize, len(data))
	}
	directed := flags&ckptFlagDirected != 0
	weighted := flags&ckptFlagWeighted != 0
	wantSecs := 9
	if weighted {
		wantSecs = 11
	}
	if secCount != wantSecs {
		return nil, nil, fmt.Errorf("egio: checkpoint section count at offset 12: got %d, want %d", secCount, wantSecs)
	}
	const maxDim = 1 << 31
	if n64 > maxDim || t64 > maxDim || n64*t64 > 1<<47 {
		return nil, nil, fmt.Errorf("egio: checkpoint implausible dimensions: N=%d T=%d", n64, t64)
	}
	n, t := int(n64), int(t64)
	nt := n * t
	if a64 > uint64(nt) {
		return nil, nil, fmt.Errorf("egio: checkpoint numActive %d exceeds N·T = %d", a64, nt)
	}
	numActive := int(a64)

	tableOff := uint64(ckptHeaderLen)
	tableLen := uint64(secCount * ckptSecEntryLen)
	bodyStart := tableOff + tableLen + 4
	if uint64(len(data)) < bodyStart+ckptFooterLen {
		return nil, nil, fmt.Errorf("egio: checkpoint truncated: %d bytes, want at least %d for the section table", len(data), bodyStart+ckptFooterLen)
	}
	if got, want := ne.Uint32(data[tableOff+tableLen:]), crc32.ChecksumIEEE(data[tableOff:tableOff+tableLen]); got != want {
		return nil, nil, fmt.Errorf("egio: checkpoint section table CRC mismatch at offset %d: got %#08x, want %#08x", tableOff+tableLen, got, want)
	}
	fo := uint64(len(data)) - ckptFooterLen
	if string(data[fo:fo+4]) != ckptMagic {
		return nil, nil, fmt.Errorf("egio: checkpoint bad footer magic at offset %d: got %q, want %q", fo, data[fo:fo+4], ckptMagic)
	}
	if got, want := ne.Uint32(data[fo+12:]), crc32.ChecksumIEEE(data[fo:fo+12]); got != want {
		return nil, nil, fmt.Errorf("egio: checkpoint footer CRC mismatch at offset %d: got %#08x, want %#08x", fo+12, got, want)
	}
	if got, want := ne.Uint32(data[fo+4:fo+8]), ne.Uint32(data[60:64]); got != want {
		return nil, nil, fmt.Errorf("egio: checkpoint footer header-CRC echo at offset %d: got %#08x, want %#08x", fo+4, got, want)
	}
	if got, want := ne.Uint32(data[fo+8:fo+12]), ne.Uint32(data[tableOff+tableLen:]); got != want {
		return nil, nil, fmt.Errorf("egio: checkpoint footer table-CRC echo at offset %d: got %#08x, want %#08x", fo+8, got, want)
	}

	// Section table: known kinds, no duplicates, page-aligned offsets,
	// in-bounds extents, exact expected lengths (all derivable from the
	// header once the adjacency totals are read off the ptr sections).
	type entry struct {
		off, length uint64
		crc         uint32
	}
	entries := make(map[uint32]entry, secCount)
	for i := 0; i < secCount; i++ {
		e := data[tableOff+uint64(i*ckptSecEntryLen):]
		kind := ne.Uint32(e[0:4])
		ent := entry{crc: ne.Uint32(e[4:8]), off: ne.Uint64(e[8:16]), length: ne.Uint64(e[16:24])}
		entOff := tableOff + uint64(i*ckptSecEntryLen)
		if _, ok := ckptSectionNames[kind]; !ok {
			return nil, nil, fmt.Errorf("egio: checkpoint unknown section kind %d in table entry at offset %d", kind, entOff)
		}
		if !weighted && (kind == secSnapOutW || kind == secSnapInW) {
			return nil, nil, fmt.Errorf("egio: checkpoint weight section %s in an unweighted file (table entry at offset %d)", ckptSectionName(kind), entOff)
		}
		if _, dup := entries[kind]; dup {
			return nil, nil, fmt.Errorf("egio: checkpoint duplicate section %s in table entry at offset %d", ckptSectionName(kind), entOff)
		}
		if ent.off%ckptPage != 0 {
			return nil, nil, fmt.Errorf("egio: checkpoint section %s offset %d is not %d-byte aligned", ckptSectionName(kind), ent.off, ckptPage)
		}
		if ent.off < bodyStart || ent.off+ent.length < ent.off || ent.off+ent.length > fo {
			return nil, nil, fmt.Errorf("egio: checkpoint section %s extent [%d, %d) out of bounds [%d, %d)", ckptSectionName(kind), ent.off, ent.off+ent.length, bodyStart, fo)
		}
		entries[kind] = ent
	}

	wN := uint64((n + 63) / 64)
	wantLen := map[uint32]uint64{
		secTimes:      8 * t64,
		secLabels:     8 * labelCount,
		secSnapOutPtr: 4 * t64 * (n64 + 1),
		secSnapInPtr:  4 * t64 * (n64 + 1),
		secSnapActive: 8 * t64 * wN,
		secActPtr:     4 * (n64 + 1),
		secActStamps:  4 * a64,
	}
	for kind, want := range wantLen {
		ent, ok := entries[kind]
		if !ok {
			return nil, nil, fmt.Errorf("egio: checkpoint missing section %s", ckptSectionName(kind))
		}
		if ent.length != want {
			return nil, nil, fmt.Errorf("egio: checkpoint section %s length: got %d bytes, want %d", ckptSectionName(kind), ent.length, want)
		}
	}
	for _, kind := range []uint32{secSnapOutAdj, secSnapInAdj} {
		if _, ok := entries[kind]; !ok {
			return nil, nil, fmt.Errorf("egio: checkpoint missing section %s", ckptSectionName(kind))
		}
	}
	// Section CRCs are independent scans over disjoint byte ranges, and
	// on a large checkpoint they dominate open time — check them in
	// parallel so a warm restart stays close to the mmap cost.
	var crcWG sync.WaitGroup
	crcErrs := make([]error, 0, len(entries))
	var crcMu sync.Mutex
	for kind, ent := range entries {
		crcWG.Add(1)
		go func(kind uint32, ent entry) {
			defer crcWG.Done()
			if got, want := crc32.ChecksumIEEE(data[ent.off:ent.off+ent.length]), ent.crc; got != want {
				crcMu.Lock()
				crcErrs = append(crcErrs, fmt.Errorf("egio: checkpoint section %s CRC mismatch at offset %d: got %#08x, want %#08x", ckptSectionName(kind), ent.off, want, got))
				crcMu.Unlock()
			}
		}(kind, ent)
	}
	crcWG.Wait()
	if len(crcErrs) > 0 {
		// Deterministic pick when several sections fail at once, so the
		// corruption tests see a stable message.
		first := crcErrs[0]
		for _, e := range crcErrs[1:] {
			if e.Error() < first.Error() {
				first = e
			}
		}
		return nil, nil, first
	}

	// All bytes verified; alias typed slices. unsafe.Slice needs the
	// element-aligned base that mmap guarantees — heap buffers (tests,
	// fuzz inputs) may not, so copy into u64-backed storage if needed.
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		aligned := make([]uint64, (len(data)+7)/8)
		copy(sliceBytes(aligned), data)
		data = sliceBytes(aligned)[:len(data)]
	}
	sec32 := func(kind uint32) []int32 {
		ent := entries[kind]
		return view[int32](data, ent.off, ent.length)
	}
	sec64 := func(kind uint32) []int64 {
		ent := entries[kind]
		return view[int64](data, ent.off, ent.length)
	}
	secU64 := func(kind uint32) []uint64 {
		ent := entries[kind]
		return view[uint64](data, ent.off, ent.length)
	}
	secF64 := func(kind uint32) []float64 {
		ent := entries[kind]
		return view[float64](data, ent.off, ent.length)
	}

	times := sec64(secTimes)
	labels := sec64(secLabels)
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, nil, fmt.Errorf("egio: checkpoint times section: labels not strictly increasing at index %d", i)
		}
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] <= labels[i-1] {
			return nil, nil, fmt.Errorf("egio: checkpoint labels section: labels not strictly increasing at index %d", i)
		}
	}

	// Ptr rows: each stamp's row starts at 0 and is monotone; the row
	// totals bound the adjacency sections exactly.
	checkPtrRows := func(kind uint32, ptr []int32) ([]int64, uint64, error) {
		rowLen := make([]int64, t)
		total := uint64(0)
		for si := 0; si < t; si++ {
			row := ptr[si*(n+1) : (si+1)*(n+1)]
			if row[0] != 0 {
				return nil, 0, fmt.Errorf("egio: checkpoint section %s: stamp %d row starts at %d, want 0", ckptSectionName(kind), si, row[0])
			}
			for i := 1; i <= n; i++ {
				if row[i] < row[i-1] {
					return nil, 0, fmt.Errorf("egio: checkpoint section %s: stamp %d row not monotone at node %d", ckptSectionName(kind), si, i)
				}
			}
			rowLen[si] = int64(row[n])
			total += uint64(row[n])
		}
		return rowLen, total, nil
	}
	snapOutPtr := sec32(secSnapOutPtr)
	snapInPtr := sec32(secSnapInPtr)
	outLens, outTotal, err := checkPtrRows(secSnapOutPtr, snapOutPtr)
	if err != nil {
		return nil, nil, err
	}
	inLens, inTotal, err := checkPtrRows(secSnapInPtr, snapInPtr)
	if err != nil {
		return nil, nil, err
	}
	adjLen := map[uint32]uint64{
		secSnapOutAdj: 4 * outTotal,
		secSnapInAdj:  4 * inTotal,
	}
	if weighted {
		adjLen[secSnapOutW] = 8 * outTotal
		adjLen[secSnapInW] = 8 * inTotal
	}
	for kind, want := range adjLen {
		if got := entries[kind].length; got != want {
			return nil, nil, fmt.Errorf("egio: checkpoint section %s length: got %d bytes, want %d", ckptSectionName(kind), got, want)
		}
	}
	if !directed {
		for si, l := range outLens {
			if l%2 != 0 {
				return nil, nil, fmt.Errorf("egio: checkpoint snapOutPtr section: odd arc count %d in undirected stamp %d", l, si)
			}
		}
	}
	snapOutAdj := sec32(secSnapOutAdj)
	snapInAdj := sec32(secSnapInAdj)
	for i, v := range snapOutAdj {
		if v < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("egio: checkpoint snapOutAdj section: node id %d out of range [0, %d) at index %d", v, n, i)
		}
	}
	for i, v := range snapInAdj {
		if v < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("egio: checkpoint snapInAdj section: node id %d out of range [0, %d) at index %d", v, n, i)
		}
	}

	// Activity: the per-node stamp rows and the per-stamp bitsets must
	// describe the same set of exactly numActive temporal nodes. This is
	// the pass that makes the flat view built from them safe: every
	// temporal node a bitset calls active is listed once in its node's
	// stamp row, so CSR.CausalArcs finds a valid position for it.
	actPtr := sec32(secActPtr)
	actStamps := sec32(secActStamps)
	snapActWords := secU64(secSnapActive)
	if actPtr[0] != 0 {
		return nil, nil, fmt.Errorf("egio: checkpoint actPtr section: row starts at %d, want 0", actPtr[0])
	}
	for i := 1; i <= n; i++ {
		if actPtr[i] < actPtr[i-1] {
			return nil, nil, fmt.Errorf("egio: checkpoint actPtr section: row not monotone at node %d", i)
		}
	}
	if int(actPtr[n]) != numActive {
		return nil, nil, fmt.Errorf("egio: checkpoint actPtr section: row total %d, want numActive %d", actPtr[n], numActive)
	}
	tailMask := func(words []uint64, nbits int) bool {
		if r := nbits % 64; r != 0 && len(words) > 0 {
			return words[len(words)-1]&^(1<<uint(r)-1) == 0
		}
		return true
	}
	snapBits := uint64(0)
	for si := 0; si < t; si++ {
		row := snapActWords[si*int(wN) : (si+1)*int(wN)]
		if !tailMask(row, n) {
			return nil, nil, fmt.Errorf("egio: checkpoint snapActive section: stamp %d has bits set past node %d", si, n-1)
		}
		for _, w := range row {
			snapBits += uint64(bits.OnesCount64(w))
		}
	}
	if snapBits != a64 {
		return nil, nil, fmt.Errorf("egio: checkpoint snapActive section: %d bits set, want numActive %d", snapBits, numActive)
	}
	bitAt := func(words []uint64, i int) bool {
		return words[i/64]&(1<<uint(i%64)) != 0
	}
	for v := 0; v < n; v++ {
		lo, hi := int(actPtr[v]), int(actPtr[v+1])
		for gi := lo; gi < hi; gi++ {
			s := actStamps[gi]
			if s < 0 || int(s) >= t {
				return nil, nil, fmt.Errorf("egio: checkpoint actStamps section: stamp %d out of range [0, %d) at index %d", s, t, gi)
			}
			if gi > lo && s <= actStamps[gi-1] {
				return nil, nil, fmt.Errorf("egio: checkpoint actStamps section: node %d row not strictly increasing at index %d", v, gi)
			}
			if !bitAt(snapActWords[int(s)*int(wN):], v) {
				return nil, nil, fmt.Errorf("egio: checkpoint snapActive section: stamp %d missing node %d listed in actStamps", s, v)
			}
		}
	}

	// Assemble. Everything below aliases data.
	raw := egraph.Raw{
		Directed:  directed,
		Weighted:  weighted,
		NumNodes:  n,
		NumActive: numActive,
		Times:     times,
		Snaps:     make([]egraph.RawSnapshot, t),
	}
	var outW, inW []float64
	if weighted {
		outW = secF64(secSnapOutW)
		inW = secF64(secSnapInW)
	}
	outOff, inOff := int64(0), int64(0)
	for si := 0; si < t; si++ {
		ol, il := outLens[si], inLens[si]
		rs := egraph.RawSnapshot{
			OutPtr: snapOutPtr[si*(n+1) : (si+1)*(n+1) : (si+1)*(n+1)],
			OutAdj: snapOutAdj[outOff : outOff+ol : outOff+ol],
			InPtr:  snapInPtr[si*(n+1) : (si+1)*(n+1) : (si+1)*(n+1)],
			InAdj:  snapInAdj[inOff : inOff+il : inOff+il],
			Active: ds.BitSetFromWords(snapActWords[si*int(wN):(si+1)*int(wN):(si+1)*int(wN)], n),
		}
		if weighted {
			rs.OutW = outW[outOff : outOff+ol : outOff+ol]
			rs.InW = inW[inOff : inOff+il : inOff+il]
		}
		if directed {
			rs.Edges = int(ol)
		} else {
			rs.Edges = int(ol / 2)
		}
		raw.Snaps[si] = rs
		outOff += ol
		inOff += il
	}
	g := egraph.FromRaw(raw, actPtr, actStamps)
	info := &CheckpointInfo{
		WALSeq:    walSeq,
		Labels:    append([]int64(nil), labels...),
		Directed:  directed,
		Weighted:  weighted,
		Nodes:     n,
		Stamps:    t,
		NumActive: numActive,
		Bytes:     int64(len(data)),
	}
	return g, info, nil
}

// Checkpoint is an open checkpoint file: the assembled graph plus the
// backing bytes (an mmap'd view where the platform supports it, a heap
// copy otherwise).
type Checkpoint struct {
	Graph *egraph.IntEvolvingGraph
	Info  CheckpointInfo

	data   []byte
	mapped bool
}

// OpenCheckpoint maps path read-only, validates it and assembles the
// graph over the mapped sections. The returned handle must stay open
// for as long as the graph — or any graph patched from it, or any CSR
// view built from either — is reachable; a long-lived server simply
// never closes it and lets process exit unmap the pages.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		f.Close()
		return nil, fmt.Errorf("egio: checkpoint %s is empty", path)
	}
	data, mapped, err := mmapFile(f, st.Size())
	if err != nil {
		// No mmap on this platform (or the map failed): fall back to a
		// plain read. Same validation, same zero-copy assembly, just
		// heap-backed.
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			f.Close()
			return nil, serr
		}
		data, err = io.ReadAll(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		mapped = false
	}
	f.Close()
	g, info, perr := ParseCheckpoint(data)
	if perr != nil {
		if mapped {
			munmapBytes(data)
		}
		return nil, perr
	}
	return &Checkpoint{Graph: g, Info: *info, data: data, mapped: mapped}, nil
}

// Close unmaps the checkpoint. The graph (and anything sharing its
// storage) must not be used afterwards.
func (c *Checkpoint) Close() error {
	if c.mapped {
		c.mapped = false
		return munmapBytes(c.data)
	}
	c.data = nil
	return nil
}
