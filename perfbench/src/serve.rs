//! The `serve` workload: an in-process `ocelot_serve::serve` with
//! `jobs: 1` and otherwise default limits, driven through the shipped
//! `Client` by two closed-loop connections.
//!
//! * `editor` replays a seeded edit trace: `verify` (with a `doc`) and
//!   `ping` per edit, and `lint` plus `submit` on every
//!   [`LINT_EVERY`]th edit.
//! * `dashboard` submits the nine apps once, then loops `run` (rotating
//!   app × scenario × seed) with a 9-scenario `sweep` every
//!   [`SWEEP_EVERY`]th request, leaving `backend` and `opt` to the
//!   server's defaults.
//!
//! The traced run replays the handled request stream through
//! `handle_request` in-process, and the editor's edits, lints and the
//! dashboard's cells through the layers underneath, inside spans.

use crate::report::{self, splitmix, Report};
use crate::trace::Tracer;
use crate::{Args, Traced};
use ocelot_bench::artifact::{stats_from_json, stats_to_json};
use ocelot_bench::fleet::add_stats;
use ocelot_bench::harness::MAX_STEPS;
use ocelot_bench::json::{self, Json};
use ocelot_bench::verify::{edited_source, full_verify, EditTrace, Session};
use ocelot_runtime::machine::{DeviceState, Machine};
use ocelot_runtime::stats::Stats;
use ocelot_serve::{handle_request, serve, Client, ServeConfig, ServerHandle, ServerState};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Worker functions in the editor's program.
const EDIT_FUNCS: usize = 6;
/// Edits in the editor's trace; the editor cycles through them.
const EDITS: usize = 32;
/// The editor lints and submits on every this-many-th edit, so it
/// submits at most `EDITS / LINT_EVERY` distinct programs.
const LINT_EVERY: usize = 8;
/// Every this-many-th dashboard request is a sweep.
const SWEEP_EVERY: usize = 6;
/// Server set-ups timed for `setup_s`.
const SETUPS: usize = 3;
/// Dashboard cells whose stats make up `sim.*`.
const SIM_REF: usize = 12;
/// Runs per `run` cell when the request leaves `runs` out (the
/// server's default, held by the replay's stats check).
const CELL_RUNS: u64 = 3;

/// Connection tags, the high half of request ids.
const EDITOR: u64 = 1;
const DASHBOARD: u64 = 2;

/// The seeded inputs.
struct Inputs {
    /// Edit-trace sources: the base program, then edits `1..=EDITS`.
    sources: Vec<String>,
    /// The nine apps the dashboard submits.
    apps: Vec<&'static str>,
    /// Registry scenario names.
    scenarios: Vec<String>,
    /// First device seed of the dashboard's `run` requests.
    run_seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = seed;
    let trace = EditTrace {
        funcs: EDIT_FUNCS,
        edits: EDITS,
        seed: splitmix(&mut rng),
    };
    Inputs {
        sources: (0..=EDITS).map(|n| edited_source(&trace, n)).collect(),
        apps: ocelot_apps::all_with_extensions()
            .iter()
            .map(|b| b.annotated_src)
            .collect(),
        scenarios: ocelot_scenario::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        run_seed: splitmix(&mut rng) >> 24,
    }
}

/// One request as sent and answered.
struct Logged {
    id: u64,
    op: &'static str,
    req: Json,
    /// Edit index of an editor request.
    edit: Option<usize>,
    /// Client-observed latency, ns.
    latency_ns: u64,
    /// Receive time since the epoch, ns (the handling order).
    recv_ns: u64,
    /// The raw response line, or the transport error.
    resp: Result<String, String>,
}

impl Logged {
    fn json(&self) -> Option<Json> {
        self.resp.as_ref().ok().and_then(|l| json::parse(l).ok())
    }

    fn ok(&self) -> bool {
        self.json()
            .and_then(|r| r.get("ok").and_then(Json::as_bool))
            .unwrap_or(false)
    }

    fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }
}

/// One connection's request sender.
struct Conn {
    client: Client,
    tag: u64,
    seq: u64,
    tr: Tracer,
    epoch: Instant,
}

impl Conn {
    fn new(client: Client, tag: u64, trace: bool, epoch: Instant) -> Self {
        Conn {
            client,
            tag,
            seq: 0,
            tr: Tracer::new(trace, epoch),
            epoch,
        }
    }

    fn call(
        &mut self,
        op: &'static str,
        mut members: Vec<(&str, Json)>,
        edit: Option<usize>,
    ) -> Logged {
        let id = (self.tag << 32) | self.seq;
        self.seq += 1;
        let mut pairs = vec![("id", Json::u64(id)), ("op", Json::str(op))];
        pairs.append(&mut members);
        let req = Json::obj(pairs);
        let span = self.tr.open(client_span(op), Some(id));
        let t0 = Instant::now();
        let resp = self.client.request_line(&req);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        self.tr.close(span);
        Logged {
            id,
            op,
            req,
            edit,
            latency_ns,
            recv_ns: self.epoch.elapsed().as_nanos() as u64,
            resp,
        }
    }
}

fn client_span(op: &str) -> &'static str {
    match op {
        "verify" => "client.verify",
        "ping" => "client.ping",
        "lint" => "client.lint",
        "submit" => "client.submit",
        "run" => "client.run",
        _ => "client.sweep",
    }
}

fn handler_span(op: &str) -> &'static str {
    match op {
        "verify" => "serve.handle_verify",
        "ping" => "serve.handle_ping",
        "lint" => "serve.handle_lint",
        "submit" => "serve.handle_submit",
        "run" => "serve.handle_run",
        _ => "serve.handle_sweep",
    }
}

/// A running server with both connections open.
struct Live {
    handle: ServerHandle,
    editor: Conn,
    dashboard: Conn,
    /// Program hashes of the submitted apps.
    hashes: Vec<u64>,
    /// The set-up requests.
    log: Vec<Logged>,
}

impl Live {
    fn stop(self) {
        drop(self.editor);
        drop(self.dashboard);
        self.handle.stop();
    }
}

/// Starts a server, connects both clients, submits the apps and opens
/// the editor's document.
fn start(inp: &Inputs, epoch: Instant) -> Result<Live, String> {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let connect = |tag| {
        Client::connect(handle.addr)
            .map(|c| Conn::new(c, tag, false, epoch))
            .map_err(|e| format!("connect: {e}"))
    };
    let (editor, dashboard) = match (connect(EDITOR), connect(DASHBOARD)) {
        (Ok(e), Ok(d)) => (e, d),
        (Err(e), _) | (_, Err(e)) => {
            handle.stop();
            return Err(e);
        }
    };
    let mut live = Live {
        handle,
        editor,
        dashboard,
        hashes: Vec::new(),
        log: Vec::new(),
    };
    for src in &inp.apps {
        let l = live
            .dashboard
            .call("submit", vec![("source", Json::str(src))], None);
        let hash = l
            .json()
            .and_then(|r| r.get("program").and_then(Json::as_u64));
        let resp = format!("{:?}", l.resp);
        live.log.push(l);
        match hash {
            Some(h) => live.hashes.push(h),
            None => {
                live.stop();
                return Err(format!("submit failed: {resp}"));
            }
        }
    }
    let l = live.editor.call(
        "verify",
        vec![
            ("doc", Json::str("editor")),
            ("source", Json::str(&inp.sources[0])),
        ],
        Some(0),
    );
    let ok = l.ok();
    live.log.push(l);
    if !ok {
        live.stop();
        return Err("base verify failed".into());
    }
    Ok(live)
}

fn editor_loop(c: &mut Conn, inp: &Inputs, deadline: Instant) -> Vec<Logged> {
    let mut log = Vec::new();
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let n = 1 + i % EDITS;
        let src = Json::str(&inp.sources[n]);
        log.push(c.call(
            "verify",
            vec![("doc", Json::str("editor")), ("source", src.clone())],
            Some(n),
        ));
        log.push(c.call("ping", vec![], None));
        if i % LINT_EVERY == LINT_EVERY - 1 {
            log.push(c.call("lint", vec![("source", src.clone())], Some(n)));
            log.push(c.call("submit", vec![("source", src)], Some(n)));
        }
        i += 1;
    }
    log
}

fn dashboard_loop(c: &mut Conn, inp: &Inputs, hashes: &[u64], deadline: Instant) -> Vec<Logged> {
    let mut log = Vec::new();
    let mut j = 0usize;
    let scenarios = Json::Arr(inp.scenarios.iter().map(|s| Json::str(s)).collect());
    while j == 0 || Instant::now() < deadline {
        if j % SWEEP_EVERY == SWEEP_EVERY - 1 {
            let program = hashes[(j / SWEEP_EVERY) % hashes.len()];
            log.push(c.call(
                "sweep",
                vec![
                    ("program", Json::u64(program)),
                    ("scenarios", scenarios.clone()),
                ],
                None,
            ));
        } else {
            let program = hashes[j % hashes.len()];
            let scenario = &inp.scenarios[(j / hashes.len()) % inp.scenarios.len()];
            log.push(c.call(
                "run",
                vec![
                    ("program", Json::u64(program)),
                    ("scenario", Json::str(scenario)),
                    ("seed", Json::u64(inp.run_seed + j as u64)),
                ],
                None,
            ));
        }
        j += 1;
    }
    log
}

/// One measured phase's logs and spans.
struct Phase {
    editor: Vec<Logged>,
    dashboard: Vec<Logged>,
    secs: f64,
    spans: Vec<Vec<crate::trace::Span>>,
}

impl Phase {
    fn verify_ms(&self) -> Vec<f64> {
        self.of("verify").map(Logged::latency_ms).collect()
    }

    fn ping_ms(&self) -> Vec<f64> {
        self.of("ping").map(Logged::latency_ms).collect()
    }

    fn of<'a>(&'a self, op: &'a str) -> impl Iterator<Item = &'a Logged> + 'a {
        self.editor.iter().filter(move |l| l.op == op)
    }

    fn all(&self) -> impl Iterator<Item = &Logged> {
        self.editor.iter().chain(&self.dashboard)
    }

    /// Every simulated cell in the dashboard's responses, in order.
    fn cells(&self) -> Vec<Json> {
        let mut cells = Vec::new();
        for l in &self.dashboard {
            let Some(r) = l.json() else { continue };
            if let Some(s) = r.get("stats") {
                cells.push(s.clone());
            }
            for c in r.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
                cells.extend(c.get("stats").cloned());
            }
        }
        cells
    }
}

fn phase(live: &mut Live, inp: &Inputs, budget: Duration, trace: bool) -> Phase {
    let epoch = live.editor.epoch;
    live.editor.tr = Tracer::new(trace, epoch);
    live.dashboard.tr = Tracer::new(trace, epoch);
    let start = Instant::now();
    let deadline = start + budget;
    let (editor, dashboard, hashes) = (&mut live.editor, &mut live.dashboard, &live.hashes);
    let (ed, da) = std::thread::scope(|s| {
        let ed = s.spawn(|| editor_loop(editor, inp, deadline));
        let da = s.spawn(|| {
            let log = dashboard_loop(dashboard, inp, hashes, deadline);
            (log, start.elapsed().as_secs_f64())
        });
        (
            ed.join().expect("editor thread"),
            da.join().expect("dashboard thread"),
        )
    });
    let spans = vec![
        std::mem::replace(&mut live.editor.tr, Tracer::new(false, epoch)).into_spans(),
        std::mem::replace(&mut live.dashboard.tr, Tracer::new(false, epoch)).into_spans(),
    ];
    Phase {
        editor: ed,
        dashboard: da.0,
        secs: da.1,
        spans,
    }
}

/// Cache hit ratios from the `stats` op.
fn hit_ratios(live: &mut Live) -> Vec<(&'static str, f64)> {
    let stats = live
        .editor
        .call("stats", vec![], None)
        .json()
        .unwrap_or(Json::Null);
    let ratio = |layer: &str| {
        let get = |k: String| stats.get(&k).and_then(Json::as_u64).unwrap_or(0) as f64;
        let (h, m) = (get(format!("{layer}_hits")), get(format!("{layer}_misses")));
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    vec![
        ("serve.programs_hit_ratio", ratio("programs")),
        ("serve.cores_hit_ratio", ratio("cores")),
        ("serve.lints_hit_ratio", ratio("lints")),
    ]
}

/// Counts ops and checks every response of a phase: verdicts equal a
/// from-scratch `full_verify`, and no simulated cell violates under
/// Ocelot (the server transforms every program with Ocelot).
fn check_phase(ph: &Phase, inp: &Inputs, full: &mut BTreeMap<usize, Json>, rep: &mut Report) {
    for l in ph.all() {
        rep.attempted += 1;
        if !l.ok() {
            rep.failed += 1;
            if rep.failed <= 3 {
                rep.note(format!("failed {} request: {:?}", l.op, l.resp));
            }
        }
    }
    for l in ph.of("verify") {
        let (Some(n), Some(r)) = (l.edit, l.json()) else {
            continue;
        };
        let Some(got) = r.get("verdict") else {
            continue;
        };
        let want = full
            .entry(n)
            .or_insert_with(|| match full_verify(&inp.sources[n]) {
                Ok((_, v)) => v.to_json(),
                Err(e) => Json::str(&e),
            });
        rep.check(got == want, || {
            format!("edit {n}: incremental verdict differs from full_verify")
        });
    }
    let violations: u64 = ph
        .cells()
        .iter()
        .filter_map(|s| s.get("violations").and_then(Json::as_u64))
        .sum();
    rep.check(violations == 0, || {
        format!("{violations} violations in dashboard cells under Ocelot")
    });
}

/// Replays the handled request stream and the layers underneath inside
/// spans. Returns the spans and the replay's wall time.
fn replay(
    live_log: &[Logged],
    ph: &Phase,
    inp: &Inputs,
    epoch: Instant,
    rep: &mut Report,
) -> (Vec<crate::trace::Span>, u64) {
    let t0 = Instant::now();
    let mut tr = Tracer::new(true, epoch);
    let root = tr.open("serve.replay", None);
    let mut stream: Vec<&Logged> = live_log.iter().chain(ph.all()).collect();
    stream.sort_by_key(|l| l.recv_ns);
    let mut state = ServerState::new(1, ServeConfig::default().max_programs);
    let mut handled_ns: HashMap<u64, u64> = HashMap::new();
    let mut differing = 0;
    for l in &stream {
        let span = tr.open(handler_span(l.op), Some(l.id));
        let (resp, _) = handle_request(&mut state, &l.req);
        tr.close(span);
        handled_ns.insert(l.id, tr.spans().last().map_or(0, |s| s.ns()));
        let same = match (&l.resp, resp.render_compact()) {
            (Ok(line), Ok(again)) => *line == again,
            _ => false,
        };
        differing += usize::from(!same);
    }
    rep.check(differing == 0, || {
        format!("{differing} replayed responses differ from the served bytes")
    });

    // The edit trace through one incremental session: exact counts.
    let mut session = Session::new();
    let (mut analyzed, mut reused, mut funcs) = (0, 0, 0);
    match session.verify(&inp.sources[0]) {
        Ok(_) => {
            for src in &inp.sources[1..] {
                let span = tr.open("analysis.incremental_verify", None);
                let out = session.verify(src);
                tr.close(span);
                if let Ok((_, _, st)) = out {
                    analyzed += st.analyzed;
                    reused += st.reused;
                    funcs += st.funcs;
                }
            }
        }
        Err(e) => rep.mismatches.push(format!("base program: {e}")),
    }
    rep.set("analysis.funcs_reanalyzed", analyzed as f64);
    rep.set(
        "analysis.flow_reuse_ratio",
        reused as f64 / funcs.max(1) as f64,
    );

    let opts = ocelot_lint::LintOptions::default();
    for src in inp.sources.iter().skip(LINT_EVERY).step_by(LINT_EVERY) {
        let span = tr.open("lint.lint", None);
        let out = ocelot_lint::lint_source(src, &opts);
        tr.close(span);
        rep.check(out.is_ok(), || "lint_source failed on an edit".to_string());
    }

    // The dashboard's `run` cells straight on the cached cores, on the
    // interpreter the server defaults to.
    let (mut interp_ns, mut interp_instr) = (0u64, 0u64);
    for l in ph.dashboard.iter().filter(|l| l.op == "run") {
        let (Some(r), Some(hash), Some(spec), Some(seed)) = (
            l.json(),
            l.req.get("program").and_then(Json::as_u64),
            l.req.get("scenario").and_then(Json::as_str),
            l.req.get("seed").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let Ok(sc) = ocelot_scenario::parse(spec) else {
            continue;
        };
        let Ok(core) = state.cache.core(hash, &sc) else {
            continue;
        };
        let sc = sc.reseeded(seed);
        let span = tr.open("runtime.run_interp", Some(l.id));
        let mut m = Machine::from_core(core, DeviceState::default(), sc.environment(), sc.supply());
        for _ in 0..CELL_RUNS {
            m.run_once(MAX_STEPS);
        }
        tr.close(span);
        interp_ns += tr.spans().last().map_or(0, |s| s.ns());
        interp_instr += m.stats().instructions;
        rep.check(Some(&stats_to_json(m.stats())) == r.get("stats"), || {
            format!(
                "run {}: direct interpreter stats differ from the response",
                l.id
            )
        });
    }
    rep.set(
        "runtime.ns_per_instr_interp",
        interp_ns as f64 / interp_instr.max(1) as f64,
    );
    tr.close(root);

    let wait = |op: &str| -> f64 {
        let waits: Vec<f64> = ph
            .of(op)
            .filter_map(|l| {
                handled_ns
                    .get(&l.id)
                    .map(|h| (l.latency_ns as f64 - *h as f64) / 1e6)
            })
            .collect();
        report::median(&waits)
    };
    rep.set("serve.wait_ping_ms", wait("ping"));
    rep.set("serve.wait_verify_ms", wait("verify"));
    (tr.into_spans(), t0.elapsed().as_nanos() as u64)
}

/// Sets `sim.*` from the first [`SIM_REF`] dashboard cells.
fn sim_counts(ph: &Phase, seed: u64, rep: &mut Report) {
    let cells = ph.cells();
    rep.check(cells.len() >= SIM_REF, || {
        format!("only {} dashboard cells, {SIM_REF} needed", cells.len())
    });
    let mut total = Stats::default();
    for c in cells.iter().take(SIM_REF) {
        match stats_from_json(c) {
            Ok(s) => add_stats(&mut total, &s),
            Err(e) => rep.mismatches.push(format!("cell stats: {e}")),
        }
    }
    rep.sim_counts("serve", seed, &total);
}

/// [`start`], timed into `setups`.
fn start_timed(inp: &Inputs, epoch: Instant, setups: &mut Vec<f64>) -> Result<Live, String> {
    let t0 = Instant::now();
    let live = start(inp, epoch).map_err(|e| format!("server set-up: {e}"))?;
    setups.push(t0.elapsed().as_secs_f64());
    Ok(live)
}

/// Runs the workload.
pub fn run(args: &Args) -> (Report, Option<Traced>) {
    let mut rep = Report::default();
    let inp = inputs(args.seed);
    let epoch = Instant::now();
    let mut full = BTreeMap::new();
    let mut setups = Vec::new();
    let failed = |mut rep: Report, e: String| {
        rep.mismatches.push(e);
        (rep, None)
    };

    let mut live = match start_timed(&inp, epoch, &mut setups) {
        Ok(l) => l,
        Err(e) => return failed(rep, e),
    };
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut ph = phase(&mut live, &inp, budget, false);
    let mut traced = None;
    if args.trace {
        // The untraced half above is the overhead baseline; trace a
        // second half on a fresh server.
        live.stop();
        check_phase(&ph, &inp, &mut full, &mut rep);
        let baseline = report::median(&ph.verify_ms());
        live = match start_timed(&inp, epoch, &mut setups) {
            Ok(l) => l,
            Err(e) => return failed(rep, e),
        };
        ph = phase(&mut live, &inp, budget, true);
        rep.set(
            "trace.overhead_pct",
            100.0 * (report::median(&ph.verify_ms()) / baseline - 1.0),
        );
    }
    // Read before any other server starts: threads of a stopped server
    // hand their allocator arenas to the next server's threads, and which
    // thread inherits which arena is a race that moves peak RSS.
    rep.set("peak_rss_mb", report::peak_rss_mb());
    for (name, v) in hit_ratios(&mut live) {
        rep.set(name, v);
    }
    let setup_log = std::mem::take(&mut live.log);
    live.stop();
    while !args.trace && setups.len() < SETUPS {
        match start_timed(&inp, epoch, &mut setups) {
            Ok(l) => l.stop(),
            Err(e) => return failed(rep, e),
        }
    }
    rep.set("setup_s", report::median(&setups));

    let verify_ms = ph.verify_ms();
    let ping_ms = ph.ping_ms();
    let cells = ph.cells();
    let instr: u64 = cells
        .iter()
        .filter_map(|s| s.get("instructions").and_then(Json::as_u64))
        .sum();
    rep.set("throughput_per_s", cells.len() as f64 / ph.secs);
    rep.set("sim_minstr_per_s", instr as f64 / ph.secs / 1e6);
    rep.set("latency_p50_ms", report::median(&verify_ms));
    rep.set("latency_tail_ms", report::tail(&verify_ms).0);
    rep.set("serve.ping_p50_ms", report::median(&ping_ms));
    rep.set("serve.ping_tail_ms", report::tail(&ping_ms).0);
    rep.note(format!(
        "serve: {} editor and {} dashboard requests in {:.2} s, {:.2} dashboard cells/s, setup {:.4} s (median of {})",
        ph.editor.len(),
        ph.dashboard.len(),
        ph.secs,
        cells.len() as f64 / ph.secs,
        report::median(&setups),
        setups.len()
    ));
    rep.note(report::latency_note("verify latency", &verify_ms));
    rep.note(report::latency_note("ping latency", &ping_ms));

    check_phase(&ph, &inp, &mut full, &mut rep);
    if args.trace {
        let (spans, replay_ns) = replay(&setup_log, &ph, &inp, epoch, &mut rep);
        let client_ns = (ph.secs * 1e9) as u64 * 2;
        let mut groups = std::mem::take(&mut ph.spans);
        groups.push(spans);
        traced = Some(Traced {
            groups,
            wall_ns: client_ns + replay_ns,
        });
    }
    sim_counts(&ph, args.seed, &mut rep);
    (rep, traced)
}
