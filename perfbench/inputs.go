package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"syscall"

	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/units"
	"dvfsroofline/internal/workload"
)

// Every request the benchmark sends is generated here from the workload
// seed alone, before the fleet is built: the program under test only
// ever sees these bytes.

// Seed streams: each input family draws from its own derivation of the
// workload seed, so adding a family never reshuffles another.
const (
	streamFleet = 1
	streamTrace = 2
	streamOps   = 3
)

const (
	// poolDraws is how many workload.Generate requests the profile pool
	// is recovered from; its 18 entries all appear long before that.
	poolDraws = 512
	// coldHistory is how far back a warm autotune op may reach: it
	// repeats one of the last 16 cold workloads, always still cached
	// (each device's LRU holds 64 sweeps).
	coldHistory = 16
	// refDevice is the fleet member the calibrate workload recalibrates.
	refDevice = "tk1-reference"
	// maxBodyLen bounds one generated request body.
	maxBodyLen = 1024
	// recLen is the size of one op record: body offset, body length,
	// cold number + 1 (0 for none) and the warm flag, four little-endian
	// uint32s.
	recLen = 16
)

// profileSizes is workload.DefaultSpec's FMM size set: 3 sizes x 6
// phases form the body pool.
var profileSizes = []int{192, 384, 768}

// op is one generated request. cold numbers the never-seen workload an
// autotune or place op names (-1 otherwise); a warm op repeats cold
// workload number cold and must be answered from the sweep cache.
type op struct {
	body []byte
	cold int
	warm bool
}

// poolEntry is one FMM phase profile of the workload.Generate pool.
type poolEntry struct {
	Profile   serve.ProfileJSON `json:"profile"`
	Occupancy units.Ratio       `json:"occupancy"`
}

// inputs is everything one run feeds the program. The op records and
// bodies live outside the Go heap (see offHeap), so that however many
// ops a run has in reserve, they take no part in the program's garbage
// collection.
type inputs struct {
	fleetSeed    int64
	pool         []poolEntry
	method, path string
	n            int    // ops in the sequence
	recs         []byte // n op records
	bodies       []byte // the request bodies, back to back
	used         int    // bytes of bodies written
	// cycle repeats ops forever (calibrate); otherwise every op runs at
	// most once, so cold workloads stay never-seen.
	cycle bool
}

// offHeap returns n zeroed bytes of anonymous memory that the Go
// runtime does not manage. Pages the sequence never reaches are never
// touched, so reserving for a fast host costs nothing on a slow one.
func offHeap(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, max(n, 1), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reserving %d input bytes: %w", n, err)
	}
	return b, nil
}

// alloc reserves room for n ops with at most bodies distinct bodies.
func (in *inputs) alloc(n, bodies int) error {
	var err error
	if in.recs, err = offHeap(n * recLen); err != nil {
		return err
	}
	in.bodies, err = offHeap(bodies * maxBodyLen)
	return err
}

// add appends an op with a new body.
func (in *inputs) add(body []byte, cold int) error {
	if len(body) > maxBodyLen {
		return fmt.Errorf("generated body of %d bytes exceeds %d", len(body), maxBodyLen)
	}
	off := in.used
	in.used += copy(in.bodies[off:], body)
	in.put(off, len(body), cold, false)
	return nil
}

// repeat appends a warm op that resends op j's body.
func (in *inputs) repeat(j int) {
	r := in.recs[j*recLen:]
	in.put(int(binary.LittleEndian.Uint32(r)), int(binary.LittleEndian.Uint32(r[4:])), in.opAt(j).cold, true)
}

func (in *inputs) put(off, n, cold int, warm bool) {
	r := in.recs[in.n*recLen:]
	binary.LittleEndian.PutUint32(r, uint32(off))
	binary.LittleEndian.PutUint32(r[4:], uint32(n))
	binary.LittleEndian.PutUint32(r[8:], uint32(cold+1))
	w := uint32(0)
	if warm {
		w = 1
	}
	binary.LittleEndian.PutUint32(r[12:], w)
	in.n++
}

// opAt returns op i of the sequence.
func (in *inputs) opAt(i int) op {
	if in.cycle {
		i %= in.n
	}
	r := in.recs[i*recLen:]
	off, n := binary.LittleEndian.Uint32(r), binary.LittleEndian.Uint32(r[4:])
	return op{
		body: in.bodies[off : off+n : off+n],
		cold: int(binary.LittleEndian.Uint32(r[8:])) - 1,
		warm: binary.LittleEndian.Uint32(r[12:]) == 1,
	}
}

// available is the number of op indices the sequence can serve.
func (in *inputs) available() int {
	if in.cycle {
		return math.MaxInt
	}
	return in.n
}

// positive maps a derived seed onto the positive range workload.Spec
// and the fleet config require.
func positive(s int64) int64 {
	s &= math.MaxInt64
	if s == 0 {
		return 1
	}
	return s
}

// generate builds the op sequence of workload w for the given seed.
// maxOps caps the never-repeating sequences; a run that exhausts them
// stops early and says so.
func generate(w *workloadDef, seed int64, maxOps int) (*inputs, error) {
	in := &inputs{fleetSeed: positive(stats.MixSeed(seed, streamFleet)), method: http.MethodPost}
	var err error
	if in.pool, err = profilePool(positive(stats.MixSeed(seed, streamTrace))); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(stats.MixSeed(seed, streamOps)))
	switch w.name {
	case "autotune":
		in.path = "/v1/autotune"
		err = autotuneOps(in, rng, maxOps-maxOps%w.block, w.block)
	case "place":
		in.path = "/v1/fleet/place"
		err = placeOps(in, rng, maxOps)
	case "calibrate":
		in.method, in.path, in.cycle = http.MethodGet, "/v1/calibration?device="+refDevice, true
		if err = in.alloc(1, 0); err == nil {
			in.put(0, 0, -1, false)
		}
	default:
		return nil, fmt.Errorf("no generator for workload %q", w.name)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// profilePool recovers the distinct (profile, occupancy) pairs that
// workload.Generate draws its placement requests from (the FMM phase
// profiles of sizes 192/384/768), in first-appearance order.
func profilePool(seed int64) ([]poolEntry, error) {
	tr, err := workload.Generate(workload.Spec{
		Name:         "perfbench",
		Seed:         seed,
		DurationS:    1,
		Classes:      []workload.ClassSpec{{Op: workload.OpFleetPlace, BaseRate: poolDraws}},
		ProfileSizes: profileSizes,
	})
	if err != nil {
		return nil, fmt.Errorf("generating profile pool: %w", err)
	}
	seen := map[string]bool{}
	var pool []poolEntry
	for _, ev := range tr.Events {
		var e poolEntry
		if err := json.Unmarshal(ev.Body, &e); err != nil {
			return nil, fmt.Errorf("decoding generated body: %w", err)
		}
		key, _ := json.Marshal(e)
		if !seen[string(key)] {
			seen[string(key)] = true
			pool = append(pool, e)
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("generated profile pool is empty")
	}
	return pool, nil
}

// coldBodies draws never-seen sweep workloads: a pool profile with
// every count scaled by its own factor in [0.9, 1.1). Duplicates are
// redrawn, so each body really is new to the server.
type coldBodies struct {
	rng  *rand.Rand
	pool []poolEntry
	grid string
	seen map[string]bool
}

func (c *coldBodies) next() ([]byte, error) {
	for {
		e := c.pool[c.rng.Intn(len(c.pool))]
		p := &e.Profile
		for _, f := range []*units.Count{&p.SP, &p.DPFMA, &p.DPAdd, &p.DPMul, &p.Int, &p.SharedWords, &p.L1Words, &p.L2Words, &p.DRAMWords} {
			*f *= units.Count(0.9 + 0.2*c.rng.Float64())
		}
		b, err := json.Marshal(serve.AutotuneRequest{Profile: e.Profile, Occupancy: e.Occupancy, Grid: c.grid})
		if err != nil {
			return nil, err
		}
		if !c.seen[string(b)] {
			c.seen[string(b)] = true
			return b, nil
		}
	}
}

// autotuneOps lays out n full-grid autotune ops in blocks of block ops
// with exactly one cold op per block, at a seeded position (the first
// block opens with it, so warm ops always have history). Warm ops
// repeat one of the last coldHistory cold workloads, so the declared
// hit ratio is exactly (block-1)/block over any whole number of blocks.
func autotuneOps(in *inputs, rng *rand.Rand, n, block int) error {
	if err := in.alloc(n, n/block); err != nil {
		return err
	}
	gen := &coldBodies{rng: rng, pool: in.pool, grid: "full", seen: map[string]bool{}}
	var coldAt []int // op index of each cold workload
	for b := 0; in.n < n; b++ {
		pos := 0
		if b > 0 {
			pos = rng.Intn(block)
		}
		for j := 0; j < block; j++ {
			if j == pos {
				body, err := gen.next()
				if err != nil {
					return err
				}
				coldAt = append(coldAt, in.n)
				if err := in.add(body, len(coldAt)-1); err != nil {
					return err
				}
				continue
			}
			in.repeat(coldAt[len(coldAt)-1-rng.Intn(min(coldHistory, len(coldAt)))])
		}
	}
	return nil
}

// placeOps draws n never-seen placements on the calibration grid.
func placeOps(in *inputs, rng *rand.Rand, n int) error {
	if err := in.alloc(n, n); err != nil {
		return err
	}
	gen := &coldBodies{rng: rng, pool: in.pool, seen: map[string]bool{}}
	for i := 0; i < n; i++ {
		body, err := gen.next()
		if err != nil {
			return err
		}
		if err := in.add(body, i); err != nil {
			return err
		}
	}
	return nil
}
