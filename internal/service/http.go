package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"lmc/internal/bench"
)

// Handler returns the service's HTTP API, mounted by cmd/lmc on the same
// listener as expvar and pprof:
//
//	POST /jobs              submit a JobSpec, returns its JobStatus (202;
//	                        503 while maxQueued jobs are already waiting)
//	GET  /jobs              list all jobs
//	GET  /jobs/{id}         one job's status (includes result when done)
//	POST /jobs/{id}/cancel  stop at the next round barrier / drop if queued
//	GET  /runs              checkpoint store buckets (RunMeta)
//	GET  /workloads         the bench registry (valid JobSpec.Workload values)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		// A JobSpec is under 1 KB; refuse to buffer anything past 1 MiB.
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad job spec: "+err.Error(), code)
			return
		}
		st, err := s.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, errQueueFull) {
				code = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), code)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Job(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if !s.Cancel(r.PathValue("id")) {
			http.Error(w, "no such job (or already finished)", http.StatusNotFound)
			return
		}
		st, _ := s.Job(r.PathValue("id"))
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.st.Runs())
	})

	mux.HandleFunc("GET /workloads", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		}
		var out []entry
		for _, wl := range bench.Workloads() {
			out = append(out, entry{wl.Name, wl.Description})
		}
		writeJSON(w, http.StatusOK, out)
	})

	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
