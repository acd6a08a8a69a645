package cluster

import (
	"context"
	"sort"

	"demandrace/internal/obs/alert"
)

// BackendAlertStats is one backend's row in the fleet alert document.
type BackendAlertStats struct {
	Name string `json:"name"`
	// Error is set when the backend's alert document could not be fetched
	// (its own alerts are then missing from the merged view).
	Error string `json:"error,omitempty"`
	// Active and Firing count the backend's current alerts.
	Active int `json:"active"`
	Firing int `json:"firing"`
}

// FleetAlerts is the gateway's GET /v1/alerts document: its own
// ring-level alerts merged with every reachable backend's, each entry
// attributable through its node field.
type FleetAlerts struct {
	Node string `json:"node"`
	// Active holds gateway + backend pending/firing alerts, most urgent
	// first; History the merged resolved alerts, newest first.
	Active  []alert.Alert `json:"active"`
	History []alert.Alert `json:"history"`
	// Rules is the gateway's own rule set (backends serve their own).
	Rules []alert.Rule `json:"rules"`
	// AlertErrors counts backends whose alert fetch failed — nonzero
	// means this is a partial fleet view.
	AlertErrors int `json:"alert_errors"`
	// Backends summarizes per-backend alert state in configured order.
	Backends []BackendAlertStats `json:"backends"`
}

// FleetAlerts fans out to every backend's /v1/alerts and merges the
// answers with the gateway's own engine state.
func (g *Gateway) FleetAlerts(ctx context.Context) FleetAlerts {
	doc := FleetAlerts{
		Node:    g.cfg.Node,
		Active:  g.alerts.Active(),
		History: g.alerts.History(),
		Rules:   g.alerts.Rules(),
	}

	docs, errs := fanOut[alert.Doc](ctx, g, "/v1/alerts")
	for i, b := range g.backends {
		row := BackendAlertStats{Name: b.Name}
		if err := errs[i]; err != nil {
			row.Error = err.Error()
			doc.AlertErrors++
		} else {
			for _, a := range docs[i].Active {
				row.Active++
				if a.State == alert.StateFiring {
					row.Firing++
				}
			}
			doc.Active = append(doc.Active, docs[i].Active...)
			doc.History = append(doc.History, docs[i].History...)
		}
		doc.Backends = append(doc.Backends, row)
	}

	sort.SliceStable(doc.Active, func(i, j int) bool {
		a, b := doc.Active[i], doc.Active[j]
		if (a.State == alert.StateFiring) != (b.State == alert.StateFiring) {
			return a.State == alert.StateFiring
		}
		return a.SinceMS < b.SinceMS
	})
	sort.SliceStable(doc.History, func(i, j int) bool {
		return doc.History[i].ResolvedMS > doc.History[j].ResolvedMS
	})
	return doc
}
