package runledger

import (
	"encoding/json"
	"net/http"
)

// TrendHandler serves the cross-run trend analysis as JSON at
// /trends.json: the ledger at path is re-read per request (it is
// append-only, so a held run picks up rows recorded after it
// started).
func TrendHandler(path string, opt TrendOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sources, err := ReadSources(path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		names := make([]string, len(sources))
		for i, s := range sources {
			names[i] = s.Name
		}
		rows := Trend(sources, opt)
		doc := struct {
			Ledger  string     `json:"ledger"`
			Sources []string   `json:"sources"`
			Rows    []TrendRow `json:"rows"`
		}{Ledger: path, Sources: names, Rows: rows}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}
