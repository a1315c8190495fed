package telemetry

import (
	"encoding/json"
	"net/http"
)

// DashboardHandler serves /dashboard: a single self-contained HTML
// page (no external assets, works offline) that polls /metrics.json
// once a second and renders the live run — per-rank counters, derived
// rates, residual convergence — in the browser. When the optional
// observability routes are registered (/healthz from internal/health,
// /spans from internal/flight) the page polls and renders those too;
// when absent it degrades gracefully to metrics only.
func DashboardHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		endpoints, _ := json.Marshal(registeredPatterns())
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashboardHead))
		_, _ = w.Write([]byte("<script>const EXTRA_ENDPOINTS = "))
		_, _ = w.Write(endpoints)
		_, _ = w.Write([]byte(";</script>\n"))
		_, _ = w.Write([]byte(dashboardBody))
	})
}

const dashboardHead = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>pjds live dashboard</title>
<style>
  body { background:#101418; color:#d8dee6; font:13px/1.5 "SF Mono","Menlo",monospace; margin:1.5em; }
  h1 { font-size:16px; color:#8fd3ff; margin:0 0 .2em 0; }
  h2 { font-size:13px; color:#8fd3ff; border-bottom:1px solid #2a3340; padding-bottom:2px; margin:1.2em 0 .4em 0; }
  .muted { color:#6b7686; }
  table { border-collapse:collapse; margin:.3em 0; }
  th, td { padding:1px 12px 1px 0; text-align:right; }
  th { color:#9aa7b8; font-weight:normal; }
  td:first-child, th:first-child { text-align:left; }
  .pass { color:#7ae08a; } .warn { color:#ffd066; } .fail { color:#ff7a7a; }
  .sev-error { color:#ff7a7a; } .sev-warn { color:#ffd066; } .sev-info { color:#8fd3ff; } .sev-debug { color:#6b7686; }
  pre { margin:0; }
  .bar { color:#5fb0e8; }
</style>
</head>
<body>
<h1>pjds live dashboard</h1>
<div class="muted" id="status">connecting&hellip;</div>
<div id="health"></div>
<div id="tenants"></div>
<h2>per-rank activity</h2>
<div id="ranks" class="muted">no rank-labelled metrics yet</div>
<h2>solver convergence</h2>
<div id="solver" class="muted">no solver gauges yet</div>
<h2>event feed <span class="muted">(flight recorder)</span></h2>
<div id="events" class="muted">flight recorder not enabled</div>
<h2>all metrics</h2>
<div id="metrics"></div>
`

const dashboardBody = `<script>
"use strict";
let prev = null, prevAt = 0;

function fmt(v) {
  if (!isFinite(v)) return String(v);
  if (v !== 0 && Math.abs(v) < 1e-3) return v.toExponential(3);
  if (Math.abs(v) >= 1e6) return v.toExponential(3);
  return (Math.round(v * 1000) / 1000).toString();
}

function sparkbar(frac, width) {
  const n = Math.max(0, Math.min(width, Math.round(frac * width)));
  return '<span class="bar">' + "█".repeat(n) + "</span>" + "░".repeat(width - n);
}

function esc(s) {
  return String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;").replace(/>/g, "&gt;");
}

function key(m) {
  return m.name + JSON.stringify(m.labels || {});
}

function render(doc) {
  const now = performance.now() / 1000;
  const metrics = doc.metrics || [];
  const byKey = {};
  for (const m of metrics) byKey[key(m)] = m;

  // Per-rank table: any counter/gauge with a rank label, with rates
  // derived from the previous poll.
  const ranks = {};
  for (const m of metrics) {
    if (!m.labels || m.labels.rank === undefined) continue;
    const r = m.labels.rank;
    (ranks[r] = ranks[r] || {})[m.name] = m;
  }
  const rankIds = Object.keys(ranks).sort((a, b) => Number(a) - Number(b));
  if (rankIds.length) {
    const names = new Set();
    for (const r of rankIds) for (const n of Object.keys(ranks[r])) names.add(n);
    const cols = [...names].sort();
    let html = "<table><tr><th>rank</th>";
    for (const c of cols) html += "<th>" + esc(c.replace(/_total$/, "")) + "</th>";
    html += "</tr>";
    for (const r of rankIds) {
      html += "<tr><td>" + esc(r) + "</td>";
      for (const c of cols) {
        const m = ranks[r][c];
        if (!m) { html += "<td class=muted>-</td>"; continue; }
        let cell = fmt(m.type === "histogram" ? m.sum : m.value);
        if (m.type === "counter" && prev && prevAt) {
          const p = prev[key(m)];
          if (p) {
            const rate = (m.value - p.value) / (now - prevAt);
            if (rate > 0) cell += ' <span class="muted">(+' + fmt(rate) + "/s)</span>";
          }
        }
        html += "<td>" + cell + "</td>";
      }
      html += "</tr>";
    }
    html += "</table>";
    document.getElementById("ranks").outerHTML = '<div id="ranks">' + html + "</div>";
  }

  // Solver convergence: residual + iteration gauges.
  const res = metrics.filter(m => m.name === "solver_residual");
  const iter = metrics.filter(m => m.name === "solver_iterations");
  if (res.length || iter.length) {
    let html = "<table><tr><th>series</th><th>iterations</th><th>residual</th></tr>";
    const tags = new Set();
    for (const m of res.concat(iter)) tags.add(JSON.stringify(m.labels || {}));
    for (const t of [...tags].sort()) {
      const lbl = JSON.parse(t);
      const find = arr => arr.find(m => JSON.stringify(m.labels || {}) === t);
      const rm = find(res), im = find(iter);
      html += "<tr><td>" + esc(Object.entries(lbl).map(([k, v]) => k + "=" + v).join(",") || "(default)") +
        "</td><td>" + (im ? fmt(im.value) : "-") +
        "</td><td>" + (rm ? fmt(rm.value) : "-") + "</td></tr>";
    }
    html += "</table>";
    document.getElementById("solver").outerHTML = '<div id="solver">' + html + "</div>";
  }

  // Full metric dump with utilization bars for *_seconds_total.
  let html = "<table>";
  for (const m of metrics) {
    const lbl = m.labels ? Object.entries(m.labels).map(([k, v]) => k + "=" + v).join(",") : "";
    const val = m.type === "histogram" ? fmt(m.sum) + ' <span class="muted">(n=' + m.count + ")</span>" : fmt(m.value);
    html += "<tr><td>" + esc(m.name) + (lbl ? '<span class="muted">{' + esc(lbl) + "}</span>" : "") +
      "</td><td>" + val + "</td></tr>";
  }
  html += "</table>";
  document.getElementById("metrics").innerHTML = html;

  prev = byKey;
  prevAt = now;
}

function renderHealth(doc) {
  // Three-state banner: pass is HEALTHY, warn-grade degraded (still
  // HTTP 200 on /healthz) is DEGRADED, fail (503) is FAILING.
  const cls = { pass: "pass", warn: "warn", fail: "fail" }[doc.status] || "muted";
  const banner = doc.status === "fail" ? "FAILING"
    : (doc.degraded || doc.status === "warn") ? "DEGRADED"
    : doc.status === "pass" ? "HEALTHY" : esc(doc.status);
  let html = '<h2>health: <span class="' + cls + '">' + banner +
    '</span> <span class="muted">(' + esc(doc.status) + ")</span></h2>";
  if (doc.signals && doc.signals.length) {
    html += "<table><tr><th>signal</th><th>status</th><th>value</th><th>cause</th></tr>";
    for (const s of doc.signals) {
      const c = { pass: "pass", warn: "warn", fail: "fail" }[s.status] || "muted";
      html += "<tr><td>" + esc(s.name) + '</td><td class="' + c + '">' + esc(s.status) +
        "</td><td>" + fmt(s.value) + '</td><td style="text-align:left">' + esc(s.cause || "") + "</td></tr>";
    }
    html += "</table>";
  }
  document.getElementById("health").innerHTML = html;
}

function renderTenants(rows) {
  if (!rows || !rows.length) { document.getElementById("tenants").innerHTML = ""; return; }
  let html = '<h2>tenants <span class="muted">(spmvd admission)</span></h2>' +
    "<table><tr><th>tenant</th><th>admitted</th><th>rejected</th><th>in flight</th><th>tokens</th><th>p50 ms</th><th>p99 ms</th></tr>";
  for (const t of rows) {
    html += "<tr><td>" + esc(t.tenant) + "</td><td>" + t.admitted + "</td><td>" + t.rejected +
      "</td><td>" + t.in_flight + "</td><td>" + fmt(t.tokens) +
      "</td><td>" + fmt(t.p50_seconds * 1e3) + "</td><td>" + fmt(t.p99_seconds * 1e3) + "</td></tr>";
  }
  html += "</table>";
  document.getElementById("tenants").innerHTML = html;
}

function renderEvents(doc) {
  const evs = (doc.events || []).slice(-30).reverse();
  if (!evs.length) {
    document.getElementById("events").outerHTML =
      '<div id="events" class="muted">no events recorded (' + (doc.events_total || 0) + " total)</div>";
    return;
  }
  let html = "<table><tr><th>t</th><th>rank</th><th>sev</th><th>kind</th><th>detail</th></tr>";
  for (const e of evs) {
    html += "<tr><td>" + fmt(e.t) + "</td><td>" + e.rank + '</td><td class="sev-' + esc(e.sev) + '">' +
      esc(e.sev) + "</td><td>" + esc(e.kind) + '</td><td style="text-align:left">' +
      esc(e.msg) + (e.value ? ' <span class="muted">(' + fmt(e.value) + ")</span>" : "") + "</td></tr>";
  }
  html += "</table>";
  document.getElementById("events").outerHTML = '<div id="events">' + html + "</div>";
}

async function poll() {
  try {
    const r = await fetch("/metrics.json", { cache: "no-store" });
    render(await r.json());
    document.getElementById("status").textContent =
      "live · polling /metrics.json every 1s · " + new Date().toLocaleTimeString();
  } catch (e) {
    document.getElementById("status").textContent = "disconnected: " + e;
  }
  if (EXTRA_ENDPOINTS.includes("/healthz")) {
    try { renderHealth(await (await fetch("/healthz", { cache: "no-store" })).json()); } catch (e) {}
  }
  if (EXTRA_ENDPOINTS.includes("/tenants.json")) {
    try { renderTenants(await (await fetch("/tenants.json", { cache: "no-store" })).json()); } catch (e) {}
  }
  if (EXTRA_ENDPOINTS.includes("/spans")) {
    try { renderEvents(await (await fetch("/spans", { cache: "no-store" })).json()); } catch (e) {}
  }
}
poll();
setInterval(poll, 1000);
</script>
</body>
</html>
`
