package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
)

// The estimation parameters spamserver runs with by default; the
// reference solve and the label check use the same ones.
const (
	defaultGamma = 0.85
	defaultTau   = 0.98
	defaultRho   = 10
	// solveEpsilon is the server's convergence bound (cmd/spamserver
	// fixes Epsilon at 1e-10).
	solveEpsilon = 1e-10
	// scoreTol is the relative agreement demanded between a served score
	// and the reference: both solves stop at ε = 1e-10, so they agree to
	// far better than this, while any real defect (a dropped dangling
	// correction, a stale vector) is orders of magnitude beyond it.
	scoreTol = 1e-6
	// sampleSize is how many hosts each correctness pass looks up.
	sampleSize = 1000
)

// detectConfig is the server's default Algorithm 2 thresholds.
func detectConfig() mass.DetectConfig {
	return mass.DetectConfig{RelMassThreshold: defaultTau, ScaledPageRankThreshold: defaultRho}
}

// check is the outcome of one correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// hostRecord mirrors the JSON answer of GET /v1/host/{name}.
type hostRecord struct {
	Host         string  `json:"host"`
	PageRank     float64 `json:"pagerank"`
	CorePageRank float64 `json:"core_pagerank"`
	AbsMass      float64 `json:"abs_mass"`
	RelMass      float64 `json:"rel_mass"`
	Label        string  `json:"label"`
	Epoch        int64   `json:"epoch"`
}

// referenceSolver is the solver configuration of the harness's own
// solves: the library defaults at the server's ε, and the zero-value
// layout, precision and algorithm — whichever of those the server is
// started with must produce the same vector.
func referenceSolver() pagerank.Config {
	cfg := pagerank.DefaultConfig()
	cfg.Epsilon = solveEpsilon
	return cfg
}

// referenceEstimates solves p and p′ in-process — the answer every
// served score is held to.
func referenceEstimates(w *world) (*mass.Estimates, error) {
	return mass.EstimateFromCore(w.hosts.Graph, w.core, mass.Options{Solver: referenceSolver(), Gamma: defaultGamma})
}

// refRecord is what the reference says about one host, in the served
// (scaled) units, labelled per Algorithm 2: spam when scaled PageRank
// ≥ ρ and relative mass ≥ τ.
type refRecord struct {
	p, pCore, rel float64
	label         string
	// nearThreshold marks hosts so close to ρ or τ that the two solves
	// may legitimately land on different sides.
	nearThreshold bool
}

func refFor(est *mass.Estimates, x graph.NodeID) refRecord {
	scale := float64(est.N()) / (1 - est.Damping)
	r := refRecord{p: est.P[x] * scale, pCore: est.PCore[x] * scale, rel: est.Rel[x], label: "good"}
	if r.p >= defaultRho && r.rel >= defaultTau {
		r.label = "spam"
	}
	r.nearThreshold = math.Abs(r.p-defaultRho) <= scoreTol*defaultRho || math.Abs(r.rel-defaultTau) <= scoreTol
	return r
}

// closeTo reports agreement to scoreTol, relative for magnitudes above
// one and absolute below (relative mass crosses zero).
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= scoreTol*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

// sampleNodes picks the hosts a correctness pass looks up: up to half
// from the hosts the reference labels spam (they are about 1% of the
// graph, so a uniform draw would barely see them), the rest uniform.
func sampleNodes(est *mass.Estimates, seed int64, size int) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed ^ 0x636865636b)) // "check"
	n := est.N()
	if size > n {
		size = n
	}
	var spam []graph.NodeID
	for x := 0; x < n; x++ {
		if refFor(est, graph.NodeID(x)).label == "spam" {
			spam = append(spam, graph.NodeID(x))
		}
	}
	rng.Shuffle(len(spam), func(i, j int) { spam[i], spam[j] = spam[j], spam[i] })
	if len(spam) > size/2 {
		spam = spam[:size/2]
	}
	seen := make(map[graph.NodeID]bool, size)
	out := make([]graph.NodeID, 0, size)
	for _, x := range spam {
		seen[x] = true
		out = append(out, x)
	}
	for len(out) < size {
		x := graph.NodeID(rng.Intn(n))
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// lookupRaw fetches one host's answer over the admin client.
func lookupRaw(base *server, name string) (int, []byte, error) {
	return adminDo(http.MethodGet, base.url("/v1/host/"+name), nil)
}

// checkReference looks the sampled hosts of w up on srv and compares
// every score and label with the reference solve.
func checkReference(name string, srv *server, w *world, est *mass.Estimates, seed int64) check {
	c := check{Name: name}
	sample := sampleNodes(est, seed, sampleSize)
	labels := map[string]int{}
	for _, x := range sample {
		host := w.hosts.Names[x]
		status, body, err := lookupRaw(srv, host)
		if err != nil || status != http.StatusOK {
			c.Detail = fmt.Sprintf("%s: status %d, err %v", host, status, err)
			return c
		}
		var got hostRecord
		if err := json.Unmarshal(body, &got); err != nil {
			c.Detail = fmt.Sprintf("%s: %v", host, err)
			return c
		}
		want := refFor(est, x)
		if got.Host != host || !closeTo(got.PageRank, want.p) || !closeTo(got.CorePageRank, want.pCore) || !closeTo(got.RelMass, want.rel) {
			c.Detail = fmt.Sprintf("%s: served p=%v p'=%v m=%v, reference p=%v p'=%v m=%v",
				host, got.PageRank, got.CorePageRank, got.RelMass, want.p, want.pCore, want.rel)
			return c
		}
		if got.Label != want.label && !want.nearThreshold {
			c.Detail = fmt.Sprintf("%s: served label %q, Algorithm 2 on the reference says %q", host, got.Label, want.label)
			return c
		}
		labels[want.label]++
	}
	c.OK = true
	c.Detail = fmt.Sprintf("%d hosts match the reference to %g (%d spam, %d good)", len(sample), scoreTol, labels["spam"], labels["good"])
	return c
}

// scoreFields are the fields of a host record that a router must pass
// through untouched.
var scoreFields = []string{"host", "pagerank", "core_pagerank", "abs_mass", "rel_mass", "label", "evaluated", "epoch"}

// checkRouterTransparent asks the router and the owning shard for the
// same hosts and requires the score fields to be byte-equal, and every
// routed epoch to be at or above the router's generation fence.
func checkRouterTransparent(router *server, shards []*server, sw *shardedWorld, w *world, sample []graph.NodeID) check {
	c := check{Name: "router-transparent"}
	status, body, err := adminDo(http.MethodGet, router.url("/readyz"), nil)
	var ready struct {
		Generation int64 `json:"generation"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &ready) != nil || ready.Generation < 1 {
		c.Detail = fmt.Sprintf("router /readyz: status %d, err %v, body %s", status, err, body)
		return c
	}
	for _, x := range sample {
		host := w.hosts.Names[x]
		rs, rbody, rerr := lookupRaw(router, host)
		ss, sbody, serr := lookupRaw(shards[sw.part.Shard[x]], host)
		if rerr != nil || serr != nil || rs != http.StatusOK || ss != http.StatusOK {
			c.Detail = fmt.Sprintf("%s: routed status %d (%v), shard status %d (%v)", host, rs, rerr, ss, serr)
			return c
		}
		var routed, direct map[string]json.RawMessage
		if json.Unmarshal(rbody, &routed) != nil || json.Unmarshal(sbody, &direct) != nil {
			c.Detail = fmt.Sprintf("%s: unparsable answer", host)
			return c
		}
		for _, f := range scoreFields {
			if !bytes.Equal(routed[f], direct[f]) {
				c.Detail = fmt.Sprintf("%s: field %s routed %s, shard %s", host, f, routed[f], direct[f])
				return c
			}
		}
		var rec hostRecord
		if err := json.Unmarshal(rbody, &rec); err != nil || rec.Epoch < ready.Generation {
			c.Detail = fmt.Sprintf("%s: routed epoch %d below router generation %d", host, rec.Epoch, ready.Generation)
			return c
		}
	}
	c.OK = true
	c.Detail = fmt.Sprintf("%d routed answers byte-equal to the owning shard's, epochs ≥ generation %d", len(sample), ready.Generation)
	return c
}
