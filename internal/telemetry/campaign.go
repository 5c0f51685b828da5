package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// CampaignSpec is the wire shape of POST /api/v1/campaigns: the cross
// product of policies x workloads, each cell one session. Cells expand in
// row-major order (policies outer, workloads inner) and that index order is
// the order results stream in, regardless of completion order.
type CampaignSpec struct {
	// ID optionally names the campaign; the server assigns c-<n> otherwise.
	ID string `json:"id,omitempty"`
	// Policies and Workloads span the grid; both must be non-empty.
	Policies  []string `json:"policies"`
	Workloads []string `json:"workloads"`
	// Scale, Stimulus, HorizonMs, TimeoutMs, SampleUs, Observe and Priority
	// apply to every cell (see SessionSpec).
	Scale     string `json:"scale,omitempty"`
	Stimulus  string `json:"stimulus,omitempty"`
	Priority  int    `json:"priority,omitempty"`
	HorizonMs int64  `json:"horizon_ms,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	SampleUs  int64  `json:"sample_us,omitempty"`
	Observe   bool   `json:"observe,omitempty"`
	// Cover captures a coverage snapshot per cell, enabling the campaign's
	// /coverage rollup (merged snapshot, dead-rule intersection, per-cell
	// frontier) and the campaign.* gauges on /metrics.
	Cover bool `json:"cover,omitempty"`
	// Force re-simulates every cell even on result-store hits.
	Force bool `json:"force,omitempty"`
}

// MaxCampaignCells bounds one campaign's grid; larger requests are a 400.
const MaxCampaignCells = 4096

// campaignCell is one (policy, workload) grid point. index, policy,
// workload and key are immutable after expansion; mu guards the rest
// against concurrent readers while the campaign fills.
type campaignCell struct {
	index    int
	policy   string
	workload string
	key      string

	mu      sync.Mutex
	session string        // session ID when the cell spawned or joined one
	done    chan struct{} // closed when result is valid
	cached  bool
	result  SessionResult
}

func (cell *campaignCell) setSession(id string) {
	cell.mu.Lock()
	cell.session = id
	cell.mu.Unlock()
}

// finish records the cell's result and marks it done. Only the first call
// acts (a cell can race its coalesced session's callback against campaign
// DELETE bookkeeping).
func (cell *campaignCell) finish(r SessionResult, cached bool) {
	cell.mu.Lock()
	defer cell.mu.Unlock()
	select {
	case <-cell.done:
		return
	default:
	}
	cell.result = r
	cell.cached = cached
	close(cell.done)
}

// CellInfo is a cell's JSON view.
type CellInfo struct {
	Index    int    `json:"index"`
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	Key      string `json:"key,omitempty"`
	Session  string `json:"session,omitempty"`
	// State is "pending" until the cell's result exists, then "done".
	State string `json:"state"`
	// Cached marks cells served from the result store without simulating.
	Cached bool           `json:"cached,omitempty"`
	Result *SessionResult `json:"result,omitempty"`
	// Forensics links to the cell session's flight-recorder bundle when the
	// cell failed (violation, fault, or error) and one was kept.
	Forensics string `json:"forensics,omitempty"`
}

// campaign tracks one grid run.
type campaign struct {
	id    string
	spec  CampaignSpec
	cells []*campaignCell
	start time.Time

	// Coverage rollup cache (see coverage.go): recomputed only when more
	// cells have finished since the cached fold. covMu serializes the fold
	// itself so concurrent scrapes don't merge the same grid twice.
	covMu   sync.Mutex
	covDone int
	covRoll *campaignCoverage
}

func (c *campaign) cellDone(cell *campaignCell) bool {
	select {
	case <-cell.done:
		return true
	default:
		return false
	}
}

func (c *campaign) cellInfo(cell *campaignCell) CellInfo {
	cell.mu.Lock()
	defer cell.mu.Unlock()
	info := CellInfo{
		Index:    cell.index,
		Policy:   cell.policy,
		Workload: cell.workload,
		Key:      cell.key,
		Session:  cell.session,
		State:    "pending",
	}
	select {
	case <-cell.done:
		info.State = "done"
		info.Cached = cell.cached
		r := cell.result
		info.Result = &r
		if r.Forensics && cell.session != "" {
			info.Forensics = "/api/v1/sessions/" + cell.session + "/forensics"
		}
	default:
	}
	return info
}

// CampaignInfo is a campaign's JSON view (without the cell list).
type CampaignInfo struct {
	ID        string `json:"id"`
	Policies  int    `json:"policies"`
	Workloads int    `json:"workloads"`
	Cells     int    `json:"cells"`
	Done      int    `json:"done"`
	Cached    int    `json:"cached"`
}

func (c *campaign) info() CampaignInfo {
	info := CampaignInfo{
		ID:        c.id,
		Policies:  len(c.spec.Policies),
		Workloads: len(c.spec.Workloads),
		Cells:     len(c.cells),
	}
	for _, cell := range c.cells {
		if c.cellDone(cell) {
			info.Done++
			if cell.cached {
				info.Cached++
			}
		}
	}
	return info
}

// v1Campaigns handles GET (list) and POST (create) on /api/v1/campaigns.
func (sv *Server) v1Campaigns(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		sv.mu.Lock()
		infos := make([]CampaignInfo, 0, len(sv.campOrder))
		for _, id := range sv.campOrder {
			infos = append(infos, sv.campaigns[id].info())
		}
		sv.mu.Unlock()
		writeData(w, http.StatusOK, map[string]any{"campaigns": infos, "total": len(infos)})
		return
	}
	var spec CampaignSpec
	if !decodeBody(w, r, "campaign spec", &spec) {
		return
	}
	c, status, aerr := sv.createCampaign(r.Context(), spec)
	if aerr != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(sv.pool.retryAfter()))
		}
		writeJSON(w, status, envelope{Error: aerr})
		return
	}
	writeData(w, status, c.info())
}

// createCampaign expands the grid, dedups each cell against the result
// store and in-flight sessions, and submits the misses — atomically against
// other submissions, so a campaign either fits the queue or is rejected
// whole with 429. The request ID carried by ctx becomes every spawned
// session's Origin.
func (sv *Server) createCampaign(ctx context.Context, spec CampaignSpec) (*campaign, int, *apiError) {
	f := sv.opts.factory
	if f == nil {
		return nil, http.StatusNotImplemented, &apiError{
			Code: "unsupported", Message: "server has no session factory; campaigns need one"}
	}
	if len(spec.Policies) == 0 || len(spec.Workloads) == 0 {
		return nil, http.StatusBadRequest, &apiError{
			Code: "bad_request", Message: "campaign needs at least one policy and one workload"}
	}
	if n := len(spec.Policies) * len(spec.Workloads); n > MaxCampaignCells {
		return nil, http.StatusBadRequest, &apiError{
			Code: "bad_request", Message: fmt.Sprintf("campaign has %d cells, max %d", n, MaxCampaignCells)}
	}

	// Resolve every cell's key before touching the queue, so admission can
	// be checked in one shot.
	type pend struct {
		cell *campaignCell
		spec SessionSpec
	}
	cells := make([]*campaignCell, 0, len(spec.Policies)*len(spec.Workloads))
	var pending []pend
	for _, pol := range spec.Policies {
		for _, wl := range spec.Workloads {
			cell := &campaignCell{
				index:    len(cells),
				policy:   pol,
				workload: wl,
				done:     make(chan struct{}),
			}
			cellSpec := SessionSpec{
				Workload:  wl,
				Scale:     spec.Scale,
				Policy:    pol,
				Stimulus:  spec.Stimulus,
				Priority:  spec.Priority,
				HorizonMs: spec.HorizonMs,
				TimeoutMs: spec.TimeoutMs,
				SampleUs:  spec.SampleUs,
				Observe:   spec.Observe,
				Cover:     spec.Cover,
				Force:     spec.Force,
			}
			key, err := f.Key(cellSpec)
			if err != nil {
				return nil, http.StatusBadRequest, &apiError{
					Code:    "bad_request",
					Message: fmt.Sprintf("cell %d (%s x %s): %v", cell.index, pol, wl, err)}
			}
			cell.key = key
			cells = append(cells, cell)
			pending = append(pending, pend{cell, cellSpec})
		}
	}

	sv.submitMu.Lock()
	defer sv.submitMu.Unlock()

	// Count how many cells actually need a fresh session, then check
	// admission once.
	fresh := 0
	inCampaign := make(map[string]bool)
	for _, p := range pending {
		if !spec.Force {
			if _, hit := sv.opts.store.Get(p.cell.key); hit {
				continue
			}
			if sv.liveByKey(p.cell.key) != nil || inCampaign[p.cell.key] {
				continue
			}
		}
		inCampaign[p.cell.key] = true
		fresh++
	}
	if sv.pool.stopped() {
		return nil, http.StatusServiceUnavailable, &apiError{
			Code: "draining", Message: "server is draining; no new campaigns"}
	}
	if sv.pool.capacityLeft() < fresh {
		sv.stats.rejectedFull.Add(1)
		return nil, http.StatusTooManyRequests, &apiError{
			Code:    "queue_full",
			Message: fmt.Sprintf("campaign needs %d queue slots, %d free; retry later", fresh, sv.pool.capacityLeft())}
	}

	c := &campaign{spec: spec, cells: cells, start: time.Now()}
	if spec.ID != "" {
		c.id = spec.ID
	} else {
		c.id = sv.autoID("c")
	}
	sv.mu.Lock()
	if _, dup := sv.campaigns[c.id]; dup {
		sv.mu.Unlock()
		return nil, http.StatusConflict, &apiError{Code: "conflict", Message: "duplicate campaign " + strconv.Quote(c.id)}
	}
	sv.campaigns[c.id] = c
	sv.campOrder = append(sv.campOrder, c.id)
	sv.mu.Unlock()

	origin := RequestIDFrom(ctx)
	if sv.log.Enabled(ctx, slog.LevelInfo) {
		sv.log.LogAttrs(ctx, slog.LevelInfo, "campaign created",
			slog.String("campaign", c.id),
			slog.String("request_id", origin),
			slog.Int("cells", len(cells)),
			slog.Int("fresh", fresh),
		)
	}

	// Fill cells through the admission path: store hit -> done now; live
	// session (including one just created for an earlier cell of this
	// campaign) -> subscribe; miss -> build and submit.
	for _, p := range pending {
		cell := p.cell
		res, live := sv.dedup(cell.key, spec.Force)
		switch {
		case res != nil:
			cell.finish(*res, true)
			continue
		case live != nil:
			cell.setSession(live.cfg.ID)
			live.onDone(cell.complete)
			continue
		}
		id, err := sv.launch(p.spec, cell.key, origin, func() string {
			return fmt.Sprintf("%s-cell-%d", c.id, cell.index)
		})
		if id != "" {
			cell.setSession(id)
		}
		if err != nil {
			// A build failure, or (admission was checked above) the
			// Force-dup or closed-server edge: record the failure on the
			// cell rather than failing the whole campaign.
			cell.finish(SessionResult{Key: cell.key, Error: err.Error()}, false)
			continue
		}
		sv.get(id).onDone(cell.complete)
	}
	return c, http.StatusCreated, nil
}

// complete records a finished session's result on the cell.
func (cell *campaignCell) complete(r SessionResult) { cell.finish(r, false) }

func (sv *Server) getCampaign(id string) *campaign {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.campaigns[id]
}

// v1Campaign handles GET (progress) and DELETE (cancel) on
// /api/v1/campaigns/{id}.
func (sv *Server) v1Campaign(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet, http.MethodDelete) {
		return
	}
	id := r.PathValue("id")
	c := sv.getCampaign(id)
	if c == nil {
		writeError(w, http.StatusNotFound, "not_found", "no campaign "+strconv.Quote(id))
		return
	}
	if r.Method == http.MethodGet {
		writeData(w, http.StatusOK, c.info())
		return
	}
	// DELETE: cancel the campaign's own sessions (cells that joined an
	// unrelated in-flight session are left alone) and drop the campaign.
	for _, cell := range c.cells {
		cell.mu.Lock()
		sid := cell.session
		cell.mu.Unlock()
		if sid != "" && !c.cellDone(cell) {
			if s := sv.get(sid); s != nil && s.cfg.Key == cell.key {
				sv.Cancel(sid)
			}
		}
	}
	sv.mu.Lock()
	delete(sv.campaigns, id)
	for i, cid := range sv.campOrder {
		if cid == id {
			sv.campOrder = append(sv.campOrder[:i], sv.campOrder[i+1:]...)
			break
		}
	}
	sv.mu.Unlock()
	writeData(w, http.StatusOK, map[string]any{"canceled": id})
}

// v1CampaignResults serves a campaign's per-cell results: paginated JSON by
// default (?offset, ?limit), or an SSE stream (?stream=sse or Accept:
// text/event-stream) that emits every cell strictly in index order as each
// becomes ready — deterministic regardless of completion order.
func (sv *Server) v1CampaignResults(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id := r.PathValue("id")
	c := sv.getCampaign(id)
	if c == nil {
		writeError(w, http.StatusNotFound, "not_found", "no campaign "+strconv.Quote(id))
		return
	}
	if r.URL.Query().Get("stream") == "sse" || r.Header.Get("Accept") == "text/event-stream" {
		sv.streamCampaign(w, r, c)
		return
	}

	offset, limit := 0, 100
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "offset must be a non-negative integer")
			return
		}
		offset = n
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "limit must be a positive integer")
			return
		}
		limit = n
	}
	cellInfos := make([]CellInfo, 0, limit)
	for i := offset; i < len(c.cells) && len(cellInfos) < limit; i++ {
		cellInfos = append(cellInfos, c.cellInfo(c.cells[i]))
	}
	next := -1
	if offset+len(cellInfos) < len(c.cells) {
		next = offset + len(cellInfos)
	}
	writeData(w, http.StatusOK, map[string]any{
		"campaign":    c.info(),
		"offset":      offset,
		"next_offset": next,
		"cells":       cellInfos,
	})
}

// streamCampaign emits `event: cell` frames strictly in cell index order,
// waiting on each cell in turn, then a final `event: done` with the
// campaign summary.
func (sv *Server) streamCampaign(w http.ResponseWriter, r *http.Request, c *campaign) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for _, cell := range c.cells {
		select {
		case <-cell.done:
		case <-r.Context().Done():
			return
		}
		b, err := json.Marshal(c.cellInfo(cell))
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "event: cell\nid: %d\ndata: %s\n\n", cell.index, b)
		fl.Flush()
	}
	b, _ := json.Marshal(c.info())
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", b)
	fl.Flush()
}
