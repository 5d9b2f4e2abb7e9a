// Closed-loop client drivers. The paper's workload intensity is controlled
// purely by the number of interactive clients per class; each client
// submits queries one after another with zero think time.
package workload

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/rng"
)

// Client is one interactive connection submitting queries from a template
// set in a closed loop. A client exists only while it is active or has a
// query in flight; otherwise it is parked as its class population's rng
// cursor.
type Client struct {
	ID    engine.ClientID
	Class *Class

	pool     *Pool
	set      *Set
	src      rng.Source
	active   bool
	inFlight bool
}

// submitNext issues the client's next query (zero think time).
//
//qlint:hotpath
func (c *Client) submitNext() {
	inst := c.set.Generate(&c.src)
	// Queries come from the submitter's freelist: the engine recycles
	// them on terminal state, so a million-query run reuses a handful of
	// objects instead of allocating one per statement. A fleet run swaps
	// in a router here; the single-engine path is untouched.
	sub := c.pool.route
	q := sub.AcquireQuery()
	q.Client = c.ID
	q.Class = c.Class.ID
	q.Template = inst.Template
	q.Cost = inst.Timerons
	q.Demand = inst.Demand
	c.inFlight = true
	sub.Submit(q)
}

// Submitter is where clients send their queries: the engine of a
// one-backend run, or a fleet router that picks a backend per query. Both
// hand out queries from a freelist via AcquireQuery.
type Submitter interface {
	AcquireQuery() *engine.Query
	Submit(*engine.Query)
}

// Pool owns all clients of an experiment and routes engine completions
// back to them. Period changes activate or park clients per class.
type Pool struct {
	route Submitter
	// clients[id] is the live client with that ID (active or in flight),
	// nil while it is parked. IDs are handed out densely from 1, so the
	// table has an entry for every ID up to nextID; index 0 is never a
	// client.
	clients []*Client
	classes map[engine.ClassID]*population
	nextID  engine.ClientID
}

// population is one class's clients. A client is an 8-byte rng cursor
// until it is activated; it then lives in the pool's clients table until
// it is inactive and idle, when its cursor is written back.
type population struct {
	class  *Class
	set    *Set
	start  engine.ClientID // id of offset 0
	cursor []uint64        // cursor[i] is parked client i's rng state
	lo, hi int             // active window [lo, hi)
}

// NewPool returns a pool bound to eng, registering its completion hook.
func NewPool(eng *engine.Engine) *Pool {
	return NewRoutedPool(eng, []*engine.Engine{eng})
}

// NewRoutedPool returns a pool that submits through route instead of a
// single engine. Completions still arrive engine-by-engine: the caller
// passes every engine queries can land on so the pool's closed loop
// keeps turning wherever the router sends them.
func NewRoutedPool(route Submitter, engines []*engine.Engine) *Pool {
	if route == nil || len(engines) == 0 {
		panic("workload: NewRoutedPool needs a router and at least one engine")
	}
	p := &Pool{
		route:   route,
		clients: make([]*Client, 1),
		classes: make(map[engine.ClassID]*population),
	}
	for _, eng := range engines {
		eng.OnDone(p.onDone)
	}
	return p
}

// AddClients creates n parked clients for class drawing from set. Each
// client gets an independent random stream split from src, so client
// counts in one class never perturb another class's draws. A class takes
// one AddClients call.
func (p *Pool) AddClients(class *Class, set *Set, n int, src *rng.Source) {
	if class == nil || set == nil {
		panic("workload: AddClients with nil class or set")
	}
	if _, ok := p.classes[class.ID]; ok {
		panic(fmt.Sprintf("workload: class %d already has clients", class.ID))
	}
	g := &population{class: class, set: set, start: p.nextID + 1, cursor: make([]uint64, n)}
	for i := range g.cursor {
		// The cursor a Split() child starts from.
		g.cursor[i] = rng.New(src.Uint64()).State()
	}
	p.nextID += engine.ClientID(n)
	p.clients = append(p.clients, make([]*Client, n)...)
	p.classes[class.ID] = g
}

// ActiveClients returns the IDs of currently active clients of a class —
// the set the snapshot monitor samples.
func (p *Pool) ActiveClients(class engine.ClassID) []engine.ClientID {
	return p.AppendActiveClients(nil, class)
}

// AppendActiveClients appends the IDs of the class's currently active
// clients to dst and returns the extended slice. A poller that consumes
// the IDs before its next call can pass its previous result[:0] and
// allocate nothing once the buffer has grown.
func (p *Pool) AppendActiveClients(dst []engine.ClientID, class engine.ClassID) []engine.ClientID {
	if g := p.classes[class]; g != nil {
		for i := g.lo; i < g.hi; i++ {
			dst = append(dst, g.start+engine.ClientID(i))
		}
	}
	return dst
}

// ActiveCount returns how many clients of the class are active.
func (p *Pool) ActiveCount(class engine.ClassID) int {
	if g := p.classes[class]; g != nil {
		return g.hi - g.lo
	}
	return 0
}

// SetActive adjusts the number of active clients in a class: the window
// [0, n). Newly activated idle clients submit immediately; deactivated
// clients finish their in-flight query and then park.
func (p *Pool) SetActive(class engine.ClassID, n int) {
	p.SetActiveWindow(class, 0, n)
}

// SetActiveWindow activates exactly the clients with class-offsets in
// [lo, hi), deactivating everything outside. A non-zero lo lets
// long-running workloads rotate client cohorts so the set of distinct
// clients is unbounded while the live set stays small.
//
// Deactivations run first, walking the old window; they submit nothing
// and parking touches only the client's own cursor, so their order
// cannot influence the simulation. Activations then run in ascending
// offset order, which fixes the order of the queries they submit.
func (p *Pool) SetActiveWindow(class engine.ClassID, lo, hi int) {
	g := p.classes[class]
	var n int
	if g != nil {
		n = len(g.cursor)
	}
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("workload: SetActiveWindow(%d, %d, %d) with only %d clients", class, lo, hi, n))
	}
	if g == nil {
		return
	}
	for i := g.lo; i < g.hi; i++ {
		if i >= lo && i < hi {
			continue
		}
		c := p.clients[g.start+engine.ClientID(i)]
		c.active = false
		if !c.inFlight {
			p.park(c)
		}
	}
	for i := lo; i < hi; i++ {
		id := g.start + engine.ClientID(i)
		c := p.clients[id]
		if c == nil {
			c = &Client{ID: id, Class: g.class, pool: p, set: g.set}
			c.src.SetState(g.cursor[i])
			p.clients[id] = c
		}
		if !c.active {
			c.active = true
			if !c.inFlight {
				c.submitNext()
			}
		}
	}
	g.lo, g.hi = lo, hi
}

// park writes an inactive, idle client's cursor back and drops it.
func (p *Pool) park(c *Client) {
	g := p.classes[c.Class.ID]
	g.cursor[c.ID-g.start] = c.src.State()
	p.clients[c.ID] = nil
}

// onDone is the pool's engine completion listener.
//
//qlint:hotpath
func (p *Pool) onDone(q *engine.Query) {
	if uint(q.Client) >= uint(len(p.clients)) {
		return // an ID the pool never issued (tests, examples)
	}
	c := p.clients[q.Client]
	if c == nil {
		return // a parked client's ID: not a pool query in flight
	}
	c.inFlight = false
	if c.active {
		c.submitNext() // zero think time
		return
	}
	p.park(c)
}
