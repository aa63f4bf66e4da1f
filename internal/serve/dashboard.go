package serve

import "net/http"

// handleDashboard serves the single-file live dashboard at GET /. It is
// plain HTML + vanilla JS over the existing JSON API (jobs, store) and the
// SSE stream — no assets, no build step, nothing the API does not already
// expose.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}

const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>dhtm-serve</title>
<style>
  body { font: 14px/1.5 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
         margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #222; background: #fdfdfd; }
  h1 { font-size: 1.2rem; } h1 small { color: #888; font-weight: normal; }
  table { border-collapse: collapse; width: 100%; margin: .75rem 0 1.5rem; }
  th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #e4e4e4; white-space: nowrap; }
  th { color: #666; font-weight: 600; border-bottom: 2px solid #ccc; }
  td.num, th.num { text-align: right; }
  .stats { display: flex; flex-wrap: wrap; gap: .5rem 2rem; margin: .75rem 0; }
  .stats div b { display: block; font-size: 1.15rem; }
  .state-queued { color: #a60; } .state-running { color: #06c; }
  .state-done { color: #181; } .state-failed { color: #c22; } .state-cancelled { color: #888; }
  .bar { display: inline-block; width: 9rem; height: .6rem; background: #eee; border-radius: 3px; vertical-align: middle; }
  .bar i { display: block; height: 100%; background: #06c; border-radius: 3px; }
  .muted { color: #888; }
  a { color: #06c; }
</style>
</head>
<body>
<h1>dhtm-serve <small>· live campaign dashboard · <a href="/metrics">/metrics</a> · <a href="/api/v1/catalog">catalog</a></small></h1>

<div class="stats" id="stats"></div>

<h2 style="font-size:1rem">Jobs</h2>
<table>
  <thead><tr>
    <th>id</th><th>kind</th><th>state</th><th>progress</th>
    <th class="num">cells</th><th class="num">cached</th><th class="num">failed</th>
    <th>queued</th><th>started</th><th>finished</th><th>phases</th>
  </tr></thead>
  <tbody id="jobs"><tr><td colspan="11" class="muted">loading…</td></tr></tbody>
</table>

<div id="detail"></div>

<script>
"use strict";
const streams = new Map(); // job id -> EventSource
const live = new Map();    // job id -> {done, total} from SSE, fresher than polls

function fmtTime(t) {
  if (!t) return "";
  return new Date(t).toLocaleTimeString();
}
function fmtPhases(ph) {
  if (!ph) return "";
  return Object.entries(ph)
    .map(([k, ns]) => k + " " + (ns / 1e9).toFixed(2) + "s")
    .join(" · ");
}
function ratio(hits, total) {
  return total ? (100 * hits / total).toFixed(1) + "%" : "–";
}

function watch(job) {
  if (streams.has(job.id)) return;
  const es = new EventSource("/api/v1/jobs/" + job.id + "/events");
  streams.set(job.id, es);
  es.addEventListener("cell", e => {
    const ev = JSON.parse(e.data);
    live.set(job.id, {done: ev.done, total: ev.total});
    render();
  });
  es.addEventListener("point", e => {
    const ev = JSON.parse(e.data);
    live.set(job.id, {done: ev.done, total: ev.total});
    render();
  });
  es.addEventListener("done", () => { es.close(); streams.delete(job.id); refresh(); });
  es.onerror = () => { es.close(); streams.delete(job.id); };
}

let jobs = [], store = null;
function render() {
  const tbody = document.getElementById("jobs");
  if (!jobs.length) {
    tbody.innerHTML = '<tr><td colspan="11" class="muted">no jobs yet — POST a scenario document to /api/v1/jobs</td></tr>';
  } else {
    tbody.innerHTML = jobs.slice().reverse().map(j => {
      const p = live.get(j.id) || {done: j.cells.done, total: j.cells.total};
      const pct = p.total ? Math.round(100 * p.done / p.total) : 0;
      const prog = p.total
        ? '<span class="bar"><i style="width:' + pct + '%"></i></span> ' + p.done + "/" + p.total
        : '<span class="muted">–</span>';
      return "<tr>" +
        '<td><a href="/api/v1/jobs/' + j.id + '">' + j.id + "</a>" +
          (j.state === "done" ? ' <a href="/api/v1/jobs/' + j.id + '/tables?meta=1">tables</a>' +
            ' <a href="#detail" onclick="showTraces(\'' + j.id + '\')">traces</a>' : "") + "</td>" +
        "<td>" + j.kind + "</td>" +
        '<td class="state-' + j.state + '">' + j.state +
          (j.error ? ' <span class="muted" title="' + j.error.replaceAll('"', "&quot;") + '">⚠</span>' : "") + "</td>" +
        "<td>" + prog + "</td>" +
        '<td class="num">' + j.cells.done + "</td>" +
        '<td class="num">' + j.cells.cached + "</td>" +
        '<td class="num">' + j.cells.failed + "</td>" +
        "<td>" + fmtTime(j.queued_at) + "</td>" +
        "<td>" + fmtTime(j.started_at) + "</td>" +
        "<td>" + fmtTime(j.finished_at) + "</td>" +
        '<td class="muted">' + fmtPhases(j.phase_ns) + "</td>" +
        "</tr>";
    }).join("");
  }

  const el = document.getElementById("stats");
  if (store) {
    const m = store.metrics, sn = store.snapshots;
    const hits = m.mem_hits + m.disk_hits;
    const lookups = hits + m.misses;
    const states = {};
    for (const j of jobs) states[j.state] = (states[j.state] || 0) + 1;
    el.innerHTML =
      "<div><b>" + (states.running || 0) + "</b>running</div>" +
      "<div><b>" + (states.queued || 0) + "</b>queued</div>" +
      "<div><b>" + jobs.length + "</b>jobs retained</div>" +
      "<div><b>" + ratio(hits, lookups) + "</b>store hit ratio (" + hits + "/" + lookups + ")</div>" +
      "<div><b>" + m.computes + "</b>simulated</div>" +
      "<div><b>" + ratio(sn.hits, sn.hits + sn.misses) + "</b>snapshot hit ratio</div>" +
      "<div><b>" + sn.clones + "</b>COW clones</div>" +
      (store.dir ? "<div><b>" + store.dir + "</b>store dir</div>" : "<div><b>memory</b>store</div>");
  }
}

// spark renders one signal as an inline SVG sparkline, x-scaled by cycle
// stamp so decimated (doubled-stride) tails keep their true spacing.
function spark(cycles, values) {
  const W = 220, H = 24;
  if (!values.length) return "";
  let max = Math.max(...values), min = Math.min(...values);
  if (max === min) max = min + 1;
  const cmax = cycles[cycles.length - 1] || 1;
  const pts = values.map((v, i) =>
    (W * cycles[i] / cmax).toFixed(1) + "," +
    (H - 1 - (H - 2) * (v - min) / (max - min)).toFixed(1)).join(" ");
  return '<svg width="' + W + '" height="' + H + '" style="vertical-align:middle">' +
    '<polyline fill="none" stroke="#06c" stroke-width="1" points="' + pts + '"/></svg>';
}

// showTraces renders the per-signal sparklines of a job's traced cells, or
// a clear "no trace recorded" state when the job has none (tracing off, or
// every cell answered from the result store).
async function showTraces(id) {
  const el = document.getElementById("detail");
  const head = '<h2 style="font-size:1rem">Cell traces · ' + id + '</h2>';
  el.innerHTML = head + '<p class="muted">loading…</p>';
  let st;
  try {
    st = await (await fetch("/api/v1/jobs/" + id)).json();
  } catch (e) {
    el.innerHTML = head + '<p class="muted">failed to load job</p>';
    return;
  }
  const keys = st.traces || [];
  if (!keys.length) {
    el.innerHTML = head + '<p class="muted">no trace recorded — the server runs without ' +
      "-trace-interval, or every cell of this job was a result-store cache hit.</p>";
    return;
  }
  let html = head;
  for (const key of keys.slice(0, 8)) {
    const url = "/api/v1/jobs/" + id + "/cells/" + encodeURIComponent(key) + "/trace";
    let tl;
    try {
      tl = await (await fetch(url + "?format=timeline")).json();
    } catch (e) { continue; }
    html += '<h3 style="font-size:.95rem">' + key +
      ' <small class="muted">stride ' + tl.stride + ' cycles · <a href="' + url + '">perfetto json</a>' +
      ' · <a href="' + url + '?format=timeline">timeline</a></small></h3>';
    html += "<table><tbody>" + tl.signals.map(s =>
      "<tr><td>" + s.name + '</td><td class="muted">' + s.unit + "</td>" +
      "<td>" + spark(tl.cycles, s.values) + "</td>" +
      '<td class="num">' + s.values[s.values.length - 1] + "</td></tr>").join("") +
      "</tbody></table>";
  }
  if (keys.length > 8) {
    html += '<p class="muted">' + (keys.length - 8) + " more traced cells in /api/v1/jobs/" + id + " → traces</p>";
  }
  el.innerHTML = html;
}

async function refresh() {
  try {
    const [jr, sr] = await Promise.all([fetch("/api/v1/jobs"), fetch("/api/v1/store")]);
    jobs = await jr.json() || [];
    store = await sr.json();
  } catch (e) { /* server restarting; keep the last view */ }
  for (const j of jobs) if (j.state === "running" || j.state === "queued") watch(j);
  render();
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
