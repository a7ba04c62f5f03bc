//! `sqda report` — renders a results directory into one self-contained
//! HTML dashboard: per-figure curves with 95% CI bands, headline and
//! hot-path stat tiles, the query-introspection curves, and run
//! provenance (manifests), with zero external assets. Every figure comes
//! from the schema-v2 fragments (the summary's `benches` and `bench/`).
//!
//! The page embeds all its data in a single
//! `<script id="sqda-data" type="application/json">` block, built here
//! deterministically from the directory contents (files sorted by name,
//! raw sub-documents validated before inclusion) so a fixed results
//! directory always produces byte-identical data — the golden test pins
//! that block for a canned 2-disk run. Chart drawing happens in inline
//! JavaScript against that block.

use crate::args::Args;
use sqda_obs::json::{parse, write_str, ObjWriter};
use std::error::Error;
use std::path::{Path, PathBuf};

type CmdResult = Result<(), Box<dyn Error + Send + Sync>>;

/// Entry point for `sqda report`.
pub fn report(args: &Args) -> CmdResult {
    let dir = PathBuf::from(args.get("results-dir").unwrap_or("results"));
    let out = PathBuf::from(args.get("out").unwrap_or("report.html"));
    if !dir.is_dir() {
        return Err(format!("results directory {} does not exist", dir.display()).into());
    }
    let data = build_data_json(&dir)?;
    std::fs::write(&out, render_html(&data))?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

/// Reads `path` and returns its contents only when they parse as JSON;
/// malformed documents are skipped with a warning instead of corrupting
/// the embedded block.
fn read_valid_json(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    match parse(text.trim()) {
        Ok(_) => Some(text.trim().to_string()),
        Err(e) => {
            eprintln!("  skipping malformed {}: {e}", path.display());
            None
        }
    }
}

/// Sorted file names under `dir` with the given suffix stripped.
fn stems_with_suffix(dir: &Path, suffix: &str) -> Vec<String> {
    let mut out: Vec<String> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_suffix(suffix).map(str::to_string)
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    out.sort();
    out
}

/// Parses one of the suite's CSVs (plain comma-joined rows, no quoting)
/// into a JSON object `{"name":…,"columns":[…],"rows":[[…]]}`. Rows are
/// kept ragged as written — a cell containing a comma splits, and the
/// table renderer tolerates it.
fn csv_to_json(name: &str, text: &str) -> String {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines
        .next()
        .map(|h| h.split(',').collect())
        .unwrap_or_default();
    let mut columns = String::from("[");
    for (i, h) in header.iter().enumerate() {
        if i > 0 {
            columns.push(',');
        }
        write_str(&mut columns, h);
    }
    columns.push(']');
    let mut rows = String::from("[");
    for (i, line) in lines.enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push('[');
        for (j, cell) in line.split(',').enumerate() {
            if j > 0 {
                rows.push(',');
            }
            write_str(&mut rows, cell);
        }
        rows.push(']');
    }
    rows.push(']');
    let mut w = ObjWriter::new();
    w.field_str("name", name);
    w.field_raw("columns", &columns);
    w.field_raw("rows", &rows);
    w.finish()
}

/// Builds the embedded data block from a results directory. Pure
/// function of the directory contents; every listing is sorted so the
/// bytes are reproducible.
pub fn build_data_json(dir: &Path) -> Result<String, Box<dyn Error + Send + Sync>> {
    let summary = read_valid_json(&dir.join("BENCH_summary.json"));

    // Standalone schema-v2 fragments; the dashboard overlays them on the
    // summary's merged `benches` object (same content when both exist).
    let frag_dir = dir.join("bench");
    let mut fragments = String::from("{");
    for (i, name) in stems_with_suffix(&frag_dir, ".json").iter().enumerate() {
        let Some(raw) = read_valid_json(&frag_dir.join(format!("{name}.json"))) else {
            continue;
        };
        if i > 0 {
            fragments.push(',');
        }
        write_str(&mut fragments, name);
        fragments.push(':');
        fragments.push_str(&raw);
    }
    fragments.push('}');

    let mut manifests = String::from("{");
    let mut first = true;
    for name in stems_with_suffix(dir, ".manifest.json") {
        let Some(raw) = read_valid_json(&dir.join(format!("{name}.manifest.json"))) else {
            continue;
        };
        if !first {
            manifests.push(',');
        }
        first = false;
        write_str(&mut manifests, &name);
        manifests.push(':');
        manifests.push_str(&raw);
    }
    manifests.push('}');

    let mut csvs = String::from("[");
    for (i, name) in stems_with_suffix(dir, ".csv").iter().enumerate() {
        let text = std::fs::read_to_string(dir.join(format!("{name}.csv")))?;
        if i > 0 {
            csvs.push(',');
        }
        csvs.push_str(&csv_to_json(name, &text));
    }
    csvs.push(']');

    let mut w = ObjWriter::new();
    w.field_str("results_dir", &dir.display().to_string());
    w.field_raw("summary", summary.as_deref().unwrap_or("null"));
    w.field_raw("fragments", &fragments);
    w.field_raw("manifests", &manifests);
    w.field_raw("csvs", &csvs);
    Ok(w.finish())
}

/// Wraps the data block in the dashboard page. `</` is escaped to keep
/// the inline `<script>` well-formed regardless of string contents.
pub fn render_html(data_json: &str) -> String {
    let safe = data_json.replace("</", "<\\/");
    PAGE.replace("__SQDA_DATA__", &safe)
}

/// The dashboard shell. Styling and chart rules follow a validated
/// palette: categorical slots assigned to algorithms in fixed order
/// (never recoloured when series drop out), 2px lines with ≥8px
/// end-markers ringed in the surface colour, CI bands as ~12% opacity
/// washes of the series hue, solid hairline gridlines, a legend plus a
/// table view for every chart, and a crosshair tooltip listing every
/// series at the snapped x. Dark mode is a selected palette, not an
/// automatic inversion.
const PAGE: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>sqda benchmark report</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root:not([data-theme="light"]) {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
  --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
  --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
  --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
}
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1100px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 20px; font-weight: 600; margin: 8px 0 2px; }
h2 { font-size: 15px; font-weight: 600; margin: 36px 0 10px; color: var(--ink-1); }
.sub { color: var(--ink-2); margin: 0 0 4px; }
.card {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 16px 16px 10px; margin: 12px 0;
}
.card h3 { font-size: 13px; font-weight: 600; margin: 0 0 2px; }
.card .meta { color: var(--ink-3); font-size: 12px; margin: 0 0 8px; }
.grid2 { display: grid; grid-template-columns: repeat(auto-fill, minmax(480px, 1fr)); gap: 12px; }
.tiles { display: grid; grid-template-columns: repeat(auto-fill, minmax(190px, 1fr)); gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 14px;
}
.tile .lbl { color: var(--ink-2); font-size: 12px; }
.tile .val { font-size: 26px; font-weight: 600; margin-top: 2px; }
.tile .ci { color: var(--ink-3); font-size: 12px; margin-top: 2px; }
svg { display: block; width: 100%; height: auto; }
.legend { display: flex; flex-wrap: wrap; gap: 6px 16px; margin: 6px 2px 2px; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; color: var(--ink-2); font-size: 12px; }
.legend .key i { display: inline-block; width: 14px; height: 0; border-top: 2px solid; border-radius: 1px; }
details { margin: 6px 0 2px; }
summary { color: var(--ink-3); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; font-size: 12px; margin: 8px 0; }
th, td { text-align: right; padding: 3px 10px; border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--ink-2); font-weight: 600; }
.tip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); border: 1px solid var(--ring); border-radius: 6px;
  box-shadow: 0 2px 10px rgba(0,0,0,0.12); padding: 8px 10px; font-size: 12px;
}
.tip .x { color: var(--ink-2); margin-bottom: 4px; }
.tip .row { display: flex; align-items: center; gap: 6px; }
.tip .row i { display: inline-block; width: 12px; height: 0; border-top: 2px solid; }
.tip .row b { font-variant-numeric: tabular-nums; }
.tip .row span { color: var(--ink-2); }
.empty { color: var(--ink-3); font-style: italic; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
</style>
</head>
<body>
<script id="sqda-data" type="application/json">__SQDA_DATA__</script>
<main id="app"></main>
<div class="tip" id="tip"></div>
<script>
"use strict";
const DATA = JSON.parse(document.getElementById("sqda-data").textContent);
const app = document.getElementById("app");
const tip = document.getElementById("tip");

// Colour follows the entity: fixed slots per algorithm, stable across
// every chart on the page; other series names take slots in first-seen
// order from a single shared registry (never recoloured per chart).
const FIXED = { BBSS: 1, FPSS: 2, CRSS: 3, WOPTSS: 4 };
const slotOf = (() => {
  const assigned = new Map();
  let next = 5;
  return name => {
    if (FIXED[name]) return FIXED[name];
    if (!assigned.has(name)) { assigned.set(name, next <= 8 ? next++ : 8); }
    return assigned.get(name);
  };
})();
const color = name => `var(--s${slotOf(name)})`;

const el = (tag, cls, text) => {
  const e = document.createElement(tag);
  if (cls) e.className = cls;
  if (text !== undefined) e.textContent = text;
  return e;
};
const fmt = v => {
  if (!isFinite(v)) return "—";
  const a = Math.abs(v);
  if (a !== 0 && (a < 0.001 || a >= 100000)) return v.toExponential(2);
  return +v.toFixed(a < 1 ? 4 : a < 100 ? 3 : 1) + "";
};

// ---- chart extraction from schema-v2 fragments -----------------------
const X_KEYS = ["k", "lambda", "disks", "failed", "u", "cpus", "population"];
function chartsFromFragment(bench, frag) {
  const metrics = (frag.metrics || []).filter(m => m.direction !== "info");
  const byName = new Map();
  for (const m of metrics) {
    if (!byName.has(m.name)) byName.set(m.name, []);
    byName.get(m.name).push(m);
  }
  const charts = [];
  for (const [name, ms] of byName) {
    const keys = Object.keys(ms[0].labels || {});
    const xKey = X_KEYS.find(k =>
      keys.includes(k) &&
      ms.every(m => isFinite(parseFloat(m.labels[k]))) &&
      new Set(ms.map(m => m.labels[k])).size > 1);
    if (!xKey) continue;
    const sKey = keys.includes("algorithm") && xKey !== "algorithm" ? "algorithm"
      : keys.find(k => k !== xKey && new Set(ms.map(m => m.labels[k])).size > 1 &&
                       ms.every(m => !isFinite(parseFloat(m.labels[k]))));
    const facetKeys = keys.filter(k => k !== xKey && k !== sKey &&
      new Set(ms.map(m => m.labels[k])).size > 1);
    const facets = new Map();
    for (const m of ms) {
      const fk = facetKeys.map(k => `${k}=${m.labels[k]}`).join(", ");
      if (!facets.has(fk)) facets.set(fk, []);
      facets.get(fk).push(m);
    }
    for (const [facet, fms] of facets) {
      const series = new Map();
      for (const m of fms) {
        const s = sKey ? m.labels[sKey] : name;
        if (!series.has(s)) series.set(s, []);
        series.get(s).push({ x: parseFloat(m.labels[xKey]), y: m.mean, ci: m.ci95 || 0 });
      }
      for (const pts of series.values()) pts.sort((a, b) => a.x - b.x);
      charts.push({ bench, metric: name, facet, xKey, series });
    }
  }
  return charts;
}

// ---- SVG line chart with CI bands ------------------------------------
function lineChart(chart) {
  const W = 520, H = 260, M = { l: 52, r: 16, t: 12, b: 34 };
  const pts = [...chart.series.values()].flat();
  const xs = pts.map(p => p.x);
  const lo = Math.min(0, ...pts.map(p => p.y - p.ci));
  const hi = Math.max(...pts.map(p => p.y + p.ci)) || 1;
  const x0 = Math.min(...xs), x1 = Math.max(...xs);
  const X = v => M.l + (v - x0) / (x1 - x0 || 1) * (W - M.l - M.r);
  const Y = v => H - M.b - (v - lo) / (hi - lo || 1) * (H - M.t - M.b);
  const svgNS = "http://www.w3.org/2000/svg";
  const svg = document.createElementNS(svgNS, "svg");
  svg.setAttribute("viewBox", `0 0 ${W} ${H}`);
  const add = (parent, tag, attrs) => {
    const n = document.createElementNS(svgNS, tag);
    for (const [k, v] of Object.entries(attrs)) n.setAttribute(k, v);
    parent.appendChild(n);
    return n;
  };
  // recessive solid hairline grid + labels on clean y ticks
  const ticks = 4;
  for (let i = 0; i <= ticks; i++) {
    const v = lo + (hi - lo) * i / ticks, y = Y(v);
    add(svg, "line", { x1: M.l, x2: W - M.r, y1: y, y2: y, stroke: "var(--grid)", "stroke-width": 1 });
    const t = add(svg, "text", { x: M.l - 6, y: y + 4, "text-anchor": "end",
      fill: "var(--ink-3)", "font-size": 10 });
    t.textContent = fmt(v);
  }
  add(svg, "line", { x1: M.l, x2: W - M.r, y1: H - M.b, y2: H - M.b, stroke: "var(--axis)", "stroke-width": 1 });
  const xTicks = [...new Set(xs)].sort((a, b) => a - b);
  for (const v of xTicks) {
    const t = add(svg, "text", { x: X(v), y: H - M.b + 14, "text-anchor": "middle",
      fill: "var(--ink-3)", "font-size": 10 });
    t.textContent = fmt(v);
  }
  const xlab = add(svg, "text", { x: (M.l + W - M.r) / 2, y: H - 4, "text-anchor": "middle",
    fill: "var(--ink-2)", "font-size": 11 });
  xlab.textContent = chart.xKey;
  // CI band: a wash of the series hue. Then the 2px line, then ≥8px
  // end-markers carrying a 2px surface ring.
  for (const [name, sp] of chart.series) {
    const c = color(name);
    if (sp.some(p => p.ci > 0)) {
      const up = sp.map(p => `${X(p.x)},${Y(p.y + p.ci)}`);
      const dn = [...sp].reverse().map(p => `${X(p.x)},${Y(p.y - p.ci)}`);
      add(svg, "polygon", { points: up.concat(dn).join(" "), fill: c, opacity: 0.12 });
    }
  }
  for (const [name, sp] of chart.series) {
    const c = color(name);
    add(svg, "polyline", { points: sp.map(p => `${X(p.x)},${Y(p.y)}`).join(" "),
      fill: "none", stroke: c, "stroke-width": 2, "stroke-linejoin": "round", "stroke-linecap": "round" });
    for (const p of sp) {
      add(svg, "circle", { cx: X(p.x), cy: Y(p.y), r: 4, fill: c,
        stroke: "var(--surface-1)", "stroke-width": 2 });
    }
  }
  // crosshair + one tooltip listing every series at the snapped x
  const cross = add(svg, "line", { x1: 0, x2: 0, y1: M.t, y2: H - M.b,
    stroke: "var(--axis)", "stroke-width": 1, visibility: "hidden" });
  svg.addEventListener("pointermove", ev => {
    const r = svg.getBoundingClientRect();
    const px = (ev.clientX - r.left) / r.width * W;
    let best = xTicks[0];
    for (const v of xTicks) if (Math.abs(X(v) - px) < Math.abs(X(best) - px)) best = v;
    cross.setAttribute("x1", X(best));
    cross.setAttribute("x2", X(best));
    cross.setAttribute("visibility", "visible");
    tip.replaceChildren();
    tip.appendChild(el("div", "x", `${chart.xKey} = ${fmt(best)}`));
    for (const [name, sp] of chart.series) {
      const p = sp.find(q => q.x === best);
      if (!p) continue;
      const row = el("div", "row");
      const key = el("i");
      key.style.borderTopColor = color(name);
      row.appendChild(key);
      row.appendChild(el("b", "", fmt(p.y) + (p.ci ? ` ±${fmt(p.ci)}` : "")));
      row.appendChild(el("span", "", name));
      tip.appendChild(row);
    }
    tip.style.display = "block";
    tip.style.left = Math.min(ev.clientX + 14, innerWidth - 180) + "px";
    tip.style.top = ev.clientY + 14 + "px";
  });
  svg.addEventListener("pointerleave", () => {
    tip.style.display = "none";
    cross.setAttribute("visibility", "hidden");
  });
  return svg;
}

function chartCard(chart) {
  const card = el("div", "card");
  card.appendChild(el("h3", "", `${chart.bench} — ${chart.metric}`));
  if (chart.facet) card.appendChild(el("p", "meta", chart.facet));
  card.appendChild(lineChart(chart));
  if (chart.series.size > 1) {
    const leg = el("div", "legend");
    for (const name of chart.series.keys()) {
      const k = el("span", "key");
      const i = el("i");
      i.style.borderTopColor = color(name);
      k.appendChild(i);
      k.appendChild(document.createTextNode(name));
      leg.appendChild(k);
    }
    card.appendChild(leg);
  }
  // table view: every charted value reachable without hover
  const det = el("details");
  det.appendChild(el("summary", "", "data table"));
  const tbl = el("table");
  const head = el("tr");
  head.appendChild(el("th", "", chart.xKey));
  for (const name of chart.series.keys()) head.appendChild(el("th", "", name + " (mean ± ci95)"));
  tbl.appendChild(head);
  const xsAll = [...new Set([...chart.series.values()].flat().map(p => p.x))].sort((a, b) => a - b);
  for (const x of xsAll) {
    const tr = el("tr");
    tr.appendChild(el("td", "", fmt(x)));
    for (const sp of chart.series.values()) {
      const p = sp.find(q => q.x === x);
      tr.appendChild(el("td", "", p ? `${fmt(p.y)} ± ${fmt(p.ci)}` : "—"));
    }
    tbl.appendChild(tr);
  }
  det.appendChild(tbl);
  card.appendChild(det);
  return card;
}

// ---- page assembly ---------------------------------------------------
app.appendChild(el("h1", "", "sqda benchmark report"));
app.appendChild(el("p", "sub", `results: ${DATA.results_dir}`));
const s = DATA.summary;
if (s) {
  const bits = [];
  if (s.schema) bits.push(`schema v${s.schema}`);
  if (s.reps) bits.push(`${s.reps} replication(s)`);
  if (s.quick !== undefined) bits.push(s.quick ? "quick mode" : "full scale");
  if (s.rng_fingerprint) bits.push(`rng ${s.rng_fingerprint}`);
  app.appendChild(el("p", "sub", bits.join(" · ")));
}

// every bench's fragment: the summary's merged `benches`, overlaid by
// the standalone files under bench/
const benches = Object.assign({}, (s && s.benches) || {}, DATA.fragments || {});
const metricsOf = (bench, name) =>
  ((benches[bench] && benches[bench].metrics) || []).filter(m => m.name === name);
// One stat tile per [label, metric]: its mean, and its CI when replicated.
function tileRow(items) {
  const tiles = el("div", "tiles");
  for (const [lbl, m] of items) {
    if (!m) continue;
    const t = el("div", "tile");
    t.appendChild(el("div", "lbl", lbl));
    t.appendChild(el("div", "val", fmt(m.mean)));
    if (m.ci95) t.appendChild(el("div", "ci", `± ${fmt(m.ci95)} (n=${m.count})`));
    tiles.appendChild(t);
  }
  app.appendChild(tiles);
}

// headline stat tiles
const headline = metricsOf("headline", "mean_response_s");
if (headline.length) {
  app.appendChild(el("h2", "", "Headline — canonical run, mean response (s)"));
  tileRow(headline.map(m => [m.labels.algorithm, m]));
}

// per-bench curves with CI bands
const names = Object.keys(benches).sort();
const allCharts = [];
for (const b of names) allCharts.push(...chartsFromFragment(b, benches[b]));
if (allCharts.length) {
  app.appendChild(el("h2", "", "Experiment curves — mean ± 95% CI over replications"));
  const grid = el("div", "grid2");
  for (const c of allCharts) grid.appendChild(chartCard(c));
  app.appendChild(grid);
}

// hot-path tiles
const hotpath = ["decode_leaf_ns", "decode_internal_ns", "warm_traversal_ns_per_node",
                 "knn_warm_ns_per_query"].map(k => [k, metricsOf("bench_hotpath", k)[0]]);
if (hotpath.some(([, m]) => m)) {
  app.appendChild(el("h2", "", "Hot path — node read/decode means (ns)"));
  tileRow(hotpath);
}

// query introspection: predicted vs observed per-query work, device
// calibration fitted from the replayed trace
const curve = name => metricsOf("bench_explain", name)
  .map(m => ({ x: parseFloat(m.labels.k), y: m.mean, ci: m.ci95 || 0 }))
  .sort((a, b) => a.x - b.x);
if (curve("mean_observed_accesses").length) {
  app.appendChild(el("h2", "", "Query introspection — analytical model vs observed execution"));
  const cal = name => metricsOf("bench_explain", name)[0];
  if (cal("calibration_samples")) {
    tileRow([["calibrated seek (ms)", cal("calibration_mean_seek_ms")],
             ["calibrated rotation (ms)", cal("calibration_mean_rotation_ms")],
             ["fixed service (ms)", cal("calibration_fixed_ms")],
             ["calibration samples", cal("calibration_samples")]]);
  }
  const acc = new Map([["predicted", curve("predicted_accesses")],
                       ["observed", curve("mean_observed_accesses")]]);
  const resid = new Map([["abs residual", curve("mean_abs_residual_accesses")]]);
  const grid = el("div", "grid2");
  grid.appendChild(chartCard({ bench: "bench_explain", metric: "node_accesses",
    facet: "", xKey: "k", series: acc }));
  grid.appendChild(chartCard({ bench: "bench_explain", metric: "abs_residual_accesses",
    facet: "", xKey: "k", series: resid }));
  app.appendChild(grid);
}

// provenance: one row per manifest
const manifestNames = Object.keys(DATA.manifests || {}).sort();
if (manifestNames.length) {
  app.appendChild(el("h2", "", "Provenance — run manifests"));
  const card = el("div", "card");
  const tbl = el("table");
  const head = el("tr");
  for (const h of ["bench", "git sha", "master seed", "reps", "warm-up", "wall (s)", "parameters"])
    head.appendChild(el("th", "", h));
  tbl.appendChild(head);
  for (const name of manifestNames) {
    const m = DATA.manifests[name];
    const tr = el("tr");
    tr.appendChild(el("td", "", m.bench || name));
    tr.appendChild(el("td", "mono", (m.git_sha || "").slice(0, 12)));
    tr.appendChild(el("td", "", String(m.master_seed ?? "")));
    tr.appendChild(el("td", "", String(m.reps ?? "")));
    tr.appendChild(el("td", "", String(m.warmup_fraction ?? "")));
    tr.appendChild(el("td", "", m.wall_s !== undefined ? fmt(m.wall_s) : ""));
    const params = m.params ? Object.entries(m.params).map(([k, v]) => `${k}=${v}`).join(" ") : "";
    tr.appendChild(el("td", "mono", params));
    tbl.appendChild(tr);
  }
  card.appendChild(tbl);
  app.appendChild(card);
}

// raw CSV tables, collapsed — the no-hover, no-JS-knowledge data path
if (Array.isArray(DATA.csvs) && DATA.csvs.length) {
  app.appendChild(el("h2", "", "Result tables"));
  for (const c of DATA.csvs) {
    const det = el("details");
    det.appendChild(el("summary", "", c.name + ".csv"));
    const tbl = el("table");
    const head = el("tr");
    for (const h of c.columns) head.appendChild(el("th", "", h));
    tbl.appendChild(head);
    for (const row of c.rows) {
      const tr = el("tr");
      for (const cell of row) tr.appendChild(el("td", "", cell));
      tbl.appendChild(tr);
    }
    det.appendChild(tbl);
    app.appendChild(det);
  }
}
if (!allCharts.length && !manifestNames.length && !(DATA.csvs || []).length) {
  app.appendChild(el("p", "empty", "No results found in this directory."));
}
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;

    /// A canned 2-disk run: one CSV, one fragment, one manifest — enough
    /// to exercise every branch of the data-block builder.
    fn write_fixture(dir: &Path) {
        std::fs::create_dir_all(dir.join("bench")).expect("mkdir");
        std::fs::write(
            dir.join("fig99_demo.csv"),
            "k,BBSS,CRSS\n1,0.10,0.05\n10,0.20,0.08\n",
        )
        .expect("csv");
        std::fs::write(
            dir.join("bench/fig99_demo.json"),
            "{\"schema\":2,\"bench\":\"fig99_demo\",\"quick\":true,\"reps\":2,\
             \"warmup_fraction\":0,\"master_seed\":7,\"rep_seeds\":[7,11],\
             \"rng_fingerprint\":\"deadbeefdeadbeef\",\"metrics\":[\
             {\"name\":\"mean_response_s\",\"labels\":{\"disks\":\"2\",\
             \"k\":\"1\",\"algorithm\":\"CRSS\"},\"direction\":\"lower\",\
             \"count\":2,\"mean\":0.05,\"std_dev\":0.01,\"ci95\":0.0139,\
             \"min\":0.04,\"max\":0.06}]}\n",
        )
        .expect("fragment");
        std::fs::write(
            dir.join("fig99_demo.manifest.json"),
            "{\"bench\":\"fig99_demo\",\"git_sha\":\"0123456789ab\",\
             \"crate_version\":\"0.1.0\",\"master_seed\":7,\"rep_seeds\":[7,11],\
             \"reps\":2,\"warmup_fraction\":0,\"params\":{\"disks\":\"2\",\"k\":\"1\"},\
             \"wall_s\":0.25,\"created_unix\":1700000000}\n",
        )
        .expect("manifest");
    }

    /// Golden pin of the embedded JSON data block for the fixed 2-disk
    /// fixture. If this breaks, the dashboard's data contract changed —
    /// update the golden only for a deliberate schema change.
    #[test]
    fn data_block_is_pinned_for_fixed_two_disk_run() {
        let dir = std::env::temp_dir().join("sqda_report_golden");
        let _ = std::fs::remove_dir_all(&dir);
        write_fixture(&dir);
        let data = build_data_json(&dir).expect("data block");
        let golden = format!(
            "{{\"results_dir\":\"{}\",\"summary\":null,\
             \"fragments\":{{\"fig99_demo\":{{\"schema\":2,\"bench\":\"fig99_demo\",\
             \"quick\":true,\"reps\":2,\"warmup_fraction\":0,\"master_seed\":7,\
             \"rep_seeds\":[7,11],\"rng_fingerprint\":\"deadbeefdeadbeef\",\
             \"metrics\":[{{\"name\":\"mean_response_s\",\"labels\":{{\"disks\":\"2\",\
             \"k\":\"1\",\"algorithm\":\"CRSS\"}},\"direction\":\"lower\",\"count\":2,\
             \"mean\":0.05,\"std_dev\":0.01,\"ci95\":0.0139,\"min\":0.04,\"max\":0.06}}]}}}},\
             \"manifests\":{{\"fig99_demo\":{{\"bench\":\"fig99_demo\",\
             \"git_sha\":\"0123456789ab\",\"crate_version\":\"0.1.0\",\"master_seed\":7,\
             \"rep_seeds\":[7,11],\"reps\":2,\"warmup_fraction\":0,\
             \"params\":{{\"disks\":\"2\",\"k\":\"1\"}},\"wall_s\":0.25,\
             \"created_unix\":1700000000}}}},\
             \"csvs\":[{{\"name\":\"fig99_demo\",\"columns\":[\"k\",\"BBSS\",\"CRSS\"],\
             \"rows\":[[\"1\",\"0.10\",\"0.05\"],[\"10\",\"0.20\",\"0.08\"]]}}]}}",
            dir.display()
        );
        assert_eq!(data, golden);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn html_embeds_data_block_and_escapes_script_closers() {
        let html = render_html("{\"x\":\"</script><b>\"}");
        assert!(html.contains("id=\"sqda-data\""));
        assert!(!html.contains("</script><b>"), "unescaped closer");
        assert!(html.contains("<\\/script><b>"));
        // The block must round-trip as the page's JS would read it.
        let start = html.find("type=\"application/json\">").expect("block") + 24;
        let end = html[start..].find("</script>").expect("close") + start;
        let embedded = &html[start..end];
        assert_eq!(embedded.replace("<\\/", "</"), "{\"x\":\"</script><b>\"}");
    }

    #[test]
    fn missing_results_dir_is_an_error() {
        let args = Args::parse(
            ["report", "--results-dir", "/nonexistent/sqda-results"]
                .iter()
                .map(|s| s.to_string()),
            &[],
        )
        .expect("parse");
        assert!(report(&args).is_err());
    }

    #[test]
    fn csv_rows_survive_ragged_cells() {
        let json = csv_to_json("t", "a,b\n1,2\nx,y,z\n");
        assert!(json.contains("[\"x\",\"y\",\"z\"]"), "{json}");
    }
}
