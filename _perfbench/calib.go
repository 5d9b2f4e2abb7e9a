package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
)

// refKernelNominalNS is one reference-kernel call's CPU time on the host
// the benchmark's bounds were set on (2-vCPU KVM guest, Intel Xeon, Go
// 1.24) in its fast state; see hostSpeed.
const refKernelNominalNS = 4.0e6

// paceNS is how much workload CPU time runs between two reference-kernel
// calls: short against the seconds-long spells in which the host's
// speed holds, long against the kernel itself (about a tenth of it).
const paceNS = 30e6

// hostSpeed tracks how fast this host runs the simulator's kind of code
// while a run is being timed.
//
// On the host the bounds were set on, CPU time per query switches
// between two levels about 1.6x apart, in spells of a second to tens of
// seconds, with steal time near zero: another tenant shares the core.
// Tight loops (arithmetic, cache-sized pointer chases) slow by 1.0-1.4x
// in the slow spells; code with the simulator's footprint of many
// functions, maps, interfaces and small allocations slows by the same
// 1.6x. refKernel is such code, built only from the Go standard library,
// so it does not change when the repository does. Running it every
// paceNS of workload CPU and scaling by nominal ÷ (its mean time) turns
// a CPU time into the CPU time the same work takes when the host runs
// the kernel at refKernelNominalNS. The raw times are printed as context.
type hostSpeed struct {
	calls int
	cpuNS int64
	last  int64 // when the kernel last returned
}

// sample runs the reference kernel once and accounts for it.
func (h *hostSpeed) sample() {
	t0 := cpuNow()
	refKernel()
	h.last = cpuNow()
	h.calls++
	h.cpuNS += h.last - t0
}

// pace runs the kernel when paceNS of CPU has passed since its last
// run. It is called from a seam the simulation reaches every control
// tick or so.
func (h *hostSpeed) pace() {
	if cpuNow()-h.last >= paceNS {
		h.sample()
	}
}

// scale returns nominal ÷ the mean kernel time since the zero value.
func (h *hostSpeed) scale() float64 {
	return refKernelNominalNS * float64(h.calls) / float64(h.cpuNS)
}

// kernelRecord is one record of the reference kernel's data set.
type kernelRecord struct {
	ID    int        `json:"id"`
	Score float64    `json:"score"`
	Tags  [3]int     `json:"tags"`
	Vals  [4]float64 `json:"vals"`
}

type byScore []kernelRecord

func (b byScore) Len() int           { return len(b) }
func (b byScore) Less(i, j int) bool { return b[i].Score < b[j].Score }
func (b byScore) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// The reference kernel's state. Every buffer, the compressor and the map
// are kept between calls, so a call allocates a few kilobytes: its
// garbage must not set the pace of the garbage collector, whose work
// would then be charged to the workload.
var kernel = struct {
	name                       *regexp.Regexp
	encoded, text, packed, num bytes.Buffer
	enc                        *json.Encoder
	deflate                    *flate.Writer
	recs, back                 []kernelRecord
	seen                       map[string]*int
	churn                      map[uint64][4]float64
	x                          uint64
}{
	name:  regexp.MustCompile(`^item-(\d+)\.(\d+)$`),
	recs:  make([]kernelRecord, 64),
	back:  make([]kernelRecord, 0, 64),
	seen:  map[string]*int{},
	churn: map[uint64][4]float64{},
	x:     0x2545f4914f6cdd1d,
}

func init() {
	kernel.enc = json.NewEncoder(&kernel.encoded)
	kernel.deflate, _ = flate.NewWriter(&kernel.packed, flate.BestSpeed)
}

// refKernel is a fixed, repository-independent unit of CPU work: JSON
// encoding and decoding, sorting, formatting, regular expressions,
// number formatting, map lookups and DEFLATE over small records, then
// random inserts, lookups and deletes on a map of about a megabyte. Its
// result is returned so the work cannot be optimised away.
func refKernel() float64 {
	const rounds, churnSteps = 12, 40000
	k := &kernel
	sum := 0.0
	for r := 0; r < rounds; r++ {
		for i := range k.recs {
			k.recs[i] = kernelRecord{ID: i*7 + r, Score: float64((i*37+r)%64) / 3,
				Tags: [3]int{i, r, i ^ r}, Vals: [4]float64{1.5, float64(i), float64(r), 0.25}}
		}
		k.encoded.Reset()
		k.enc.Encode(k.recs)
		k.back = k.back[:0]
		json.Unmarshal(k.encoded.Bytes(), &k.back)
		sort.Sort(byScore(k.back))
		k.text.Reset()
		for i := range k.back {
			fmt.Fprintf(&k.text, "item-%d.%d ", k.back[i].ID&0xff, i)
		}
		for f := k.text.Bytes(); len(f) > 0; {
			sp := bytes.IndexByte(f, ' ')
			tok := f[:sp]
			f = f[sp+1:]
			if !k.name.Match(tok) {
				continue
			}
			v := 0
			for _, c := range tok[5:bytes.IndexByte(tok, '.')] {
				v = v*10 + int(c-'0')
			}
			sum += float64(v)
			if n := k.seen[string(tok)]; n != nil {
				*n++
			} else {
				k.seen[string(tok)] = new(int)
			}
		}
		k.num.Reset()
		for i := range k.back {
			k.num.Write(strconv.AppendFloat(k.num.AvailableBuffer(), k.back[i].Score, 'g', -1, 64))
		}
		k.packed.Reset()
		k.deflate.Reset(&k.packed)
		k.deflate.Write(k.encoded.Bytes())
		k.deflate.Write(k.num.Bytes())
		k.deflate.Close()
		sum += float64(k.packed.Len())
	}
	for i := 0; i < churnSteps; i++ {
		k.x ^= k.x << 13
		k.x ^= k.x >> 7
		k.x ^= k.x << 17
		key := k.x & (1<<15 - 1)
		if v, ok := k.churn[key]; !ok {
			k.churn[key] = [4]float64{1, float64(key), 2, 3}
		} else if sum += v[1]; k.x&0x300 == 0 {
			delete(k.churn, key)
		}
	}
	return sum
}
