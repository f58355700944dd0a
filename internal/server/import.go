package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"

	"prophet"
	"prophet/internal/profimport"
	"prophet/internal/sweep"
)

// POST /v1/workloads ingests a captured execution profile — a pprof
// protobuf (gzipped or raw) or folded-stacks text — converts it to a
// program tree with internal/profimport, profiles that tree like Load
// profiles a registered benchmark, and registers the result as a new
// named workload. From then on /v1/predict and /v1/sweep serve it
// exactly like a built-in: same cache, same worker slots, same wire format.
//
// Query parameters:
//
//	name         required; ^[A-Za-z0-9._-]{1,64}$, must not collide
//	format       pprof | folded (default: sniffed from the body)
//	sample_type  pprof value column to import (default: cpu)
//	collapse     leaf-collapse fraction (default profimport's)
//
// The body is the profile, raw. Errors are structured client errors:
// 400 for undecodable/empty profiles and bad parameters, 409 for a
// duplicate name, 413 for oversized bodies.

// importNameRE validates uploaded workload names: short, path- and
// shell-safe, usable verbatim in cache keys and CLI examples.
var importNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func (s *Server) handleWorkloadImport(w http.ResponseWriter, r *http.Request) {
	if s.cfg.MaxImportBytes < 0 {
		writeError(w, http.StatusForbidden, "profile uploads are disabled on this server")
		return
	}
	name := r.URL.Query().Get("name")
	if !importNameRE.MatchString(name) {
		s.clientError(w, badRequestf("name %q must match %s", name, importNameRE))
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "pprof", "folded":
	default:
		s.clientError(w, badRequestf("format %q must be pprof or folded", format))
		return
	}
	collapse := profimport.DefaultCollapseFraction
	if c := r.URL.Query().Get("collapse"); c != "" {
		f, err := strconv.ParseFloat(c, 64)
		if err != nil || f < 0 || f >= 1 {
			s.clientError(w, badRequestf("collapse %q must be a fraction in [0, 1)", c))
			return
		}
		collapse = f
	}

	// Fast-fail duplicates before reading the body or profiling; the
	// registration below re-checks under the same lock for races.
	s.entriesMu.RLock()
	_, taken := s.entries[name]
	s.entriesMu.RUnlock()
	if taken {
		s.badReqs.Inc()
		writeError(w, http.StatusConflict, fmt.Sprintf("workload %q already exists", name))
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxImportBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.badReqs.Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("profile exceeds the %d-byte upload limit", s.cfg.MaxImportBytes))
			return
		}
		s.clientError(w, badRequestf("reading profile body: %v", err))
		return
	}

	opts := &profimport.Options{
		SampleType:       r.URL.Query().Get("sample_type"),
		SectionName:      name,
		CollapseFraction: collapse,
		MaxBytes:         s.cfg.MaxImportBytes,
		Metrics:          s.metrics,
	}
	convert, formatName := profimport.FromPprof, "pprof"
	if format == "folded" || (format == "" && looksFolded(data)) {
		convert, formatName = profimport.FromFolded, "folded"
	}
	res, err := convert(data, opts)
	if err != nil {
		s.badReqs.Inc()
		status := http.StatusBadRequest
		if errors.Is(err, profimport.ErrTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err.Error())
		return
	}

	// Profiling an imported tree is the expensive step (emulation plus,
	// unless disabled, memory-model calibration) — it goes through the
	// same admission gate as predictions so uploads cannot starve them.
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	prof, err := prophet.ProfileTreeCtx(ctx, res.Tree, &prophet.Options{
		ThreadCounts:       s.cfg.Cores,
		DisableMemoryModel: s.cfg.DisableMemoryModel,
		Observer:           prophet.Observer{Metrics: s.metrics},
		Surrogate:          s.surr,
	})
	if sweep.IsCancellation(err) {
		writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("profiling canceled: %v", err))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("profiling imported tree: %v", err))
		return
	}
	hash, err := hashTree(prof.Tree)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("hashing imported tree: %v", err))
		return
	}

	entry := &workloadEntry{
		name: name,
		desc: fmt.Sprintf("imported %s profile (%d samples of %s)",
			formatName, res.Stats.Samples, res.Stats.SampleType),
		prof:         prof,
		treeHash:     hash,
		paradigm:     prophet.OpenMP,
		sched:        prophet.Static,
		threadCounts: s.cfg.Cores,
	}
	s.entriesMu.Lock()
	if _, taken := s.entries[name]; taken {
		s.entriesMu.Unlock()
		s.badReqs.Inc()
		writeError(w, http.StatusConflict, fmt.Sprintf("workload %q already exists", name))
		return
	}
	s.entries[name] = entry
	s.imported = append(s.imported, name)
	s.entriesMu.Unlock()
	s.imports.Inc()

	writeJSON(w, http.StatusCreated, importResponse{
		workloadInfo: infoFor(entry),
		Stats: importStats{
			Samples:         res.Stats.Samples,
			TotalWeight:     res.Stats.TotalWeight,
			Frames:          res.Stats.Frames,
			FramesKept:      res.Stats.FramesKept,
			FramesDropped:   res.Stats.FramesDropped,
			TruncatedStacks: res.Stats.TruncatedStacks,
			SampleType:      res.Stats.SampleType,
			CollapseRatio:   res.Stats.CollapseRatio(),
		},
	})
}

// looksFolded sniffs the upload format when the client does not say:
// gzip or bytes outside the printable-text range mean pprof protobuf
// (a gzipped profile starts 0x1f 0x8b; a raw one is full of low field
// tags), anything that reads as plain text is folded stacks.
func looksFolded(data []byte) bool {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		return false
	}
	n := len(data)
	if n > 512 {
		n = 512
	}
	for _, b := range data[:n] {
		if b < 0x09 || (b > 0x0d && b < 0x20) || b == 0x7f {
			return false
		}
	}
	return true
}

// hashTree is the workload identity used in cache keys: the first 8
// bytes of the SHA-256 of the tree's stable JSON form, hex-encoded.
func hashTree(t *prophet.Tree) (string, error) {
	treeJSON, err := json.Marshal(t)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(treeJSON)
	return hex.EncodeToString(sum[:8]), nil
}

func infoFor(e *workloadEntry) workloadInfo {
	return workloadInfo{
		Name:     e.name,
		Desc:     e.desc,
		Paradigm: e.paradigm.String(),
		Sched:    e.sched.String(),
		TreeHash: e.treeHash,
	}
}
