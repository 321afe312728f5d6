//! E21 — multi-tenant host scale: thousands of concurrent sharing sessions
//! in one process, flat per-session step cost, and cross-session encode
//! sharing.
//!
//! Two hosted runs differ only in tenant count: a 64-session baseline and a
//! `HOST_SCALE_SESSIONS` (default 1000) run. Every session is an
//! independent world — own desktop, own `AppHost`, own UDP participant —
//! drawing one of four content classes, so same-class tenants produce
//! byte-identical tiles for the process-wide shared cache to deduplicate.
//!
//! Gates (per ISSUE acceptance):
//!
//! * the big run hosts ≥ `HOST_SCALE_SESSIONS` sessions and every one of
//!   them converges and is serviced fairly (steps_min close to steps_max);
//! * per-session step cost is flat: big-run CPU µs/service within ±20% of
//!   the 64-session baseline (scaling adds cache hits, not work);
//! * the shared cache absorbs the cross-tenant redundancy: lookup hit rate
//!   ≥ 50% and misses **per session** strictly shrink as sessions grow.
//!
//! Emits the host stats document (`adshare-host-stats/v1`) and the host
//! registry snapshot (`adshare-obs/v1`) for `obs_schema_check`, plus a
//! machine-readable comparison to `BENCH_host.json`.

use adshare_bench::{emit_document, emit_snapshot, print_table, round_to, write_bench_json};
use adshare_codec::Rect;
use adshare_host::{CacheSharing, HostConfig, HostStats, MultiHost};
use adshare_netsim::udp::LinkConfig;
use adshare_obs::json::{self, Obj};
use adshare_screen::wm::WindowId;
use adshare_screen::Desktop;
use adshare_session::{AhConfig, Layout, SimSession};

const INTERVAL_US: u64 = 16_000;
const RUN_US: u64 = 500_000;
const CLASSES: usize = 4;
const WORK_TICKS: u32 = 24;

fn desktop() -> (Desktop, WindowId) {
    let mut d = Desktop::new(320, 240);
    let win = d.create_window(1, Rect::new(16, 16, 192, 128), [24, 48, 72, 255]);
    (d, win)
}

fn link() -> LinkConfig {
    LinkConfig {
        delay_us: 2_000,
        ..LinkConfig::default()
    }
}

/// The per-session workload: content is a pure function of
/// `(class, tick)`, so same-class sessions are byte-identical tenants.
fn workload(class: usize, win: WindowId) -> impl FnMut(&mut SimSession, u64) -> bool + Send {
    let mut tick = 0u32;
    move |sess, _now| {
        tick += 1;
        let c = ((tick as usize * 13 + class * 59) % 200) as u8 + 20;
        let x = (tick % 3) * 48;
        sess.ah.desktop_mut().fill(
            win,
            Rect::new(x, 0, 48, 48),
            [c, c ^ 0x5a, (class as u8) * 50, 255],
        );
        tick < WORK_TICKS
    }
}

struct Outcome {
    stats: HostStats,
    converged: usize,
    host: MultiHost,
}

fn run_host(n: usize, seed: u64) -> Outcome {
    let mut host = MultiHost::new(HostConfig {
        capture_interval_us: INTERVAL_US,
        ..HostConfig::default()
    });
    for i in 0..n {
        let (d, win) = desktop();
        let idx = host.add_session(
            d,
            AhConfig::default(),
            seed ^ i as u64,
            CacheSharing::Shared,
        );
        host.session_mut(idx).add_udp_participant(
            Layout::Original,
            link(),
            link(),
            None,
            seed ^ (i as u64) << 8,
        );
        host.set_workload(idx, workload(i % CLASSES, win));
    }
    host.run_until(RUN_US);
    let converged = (0..n).filter(|&i| host.session(i).converged(0)).count();
    let stats = host.stats();
    Outcome {
        stats,
        converged,
        host,
    }
}

fn per_service_cpu(s: &HostStats) -> f64 {
    s.cpu_us as f64 / s.services.max(1) as f64
}

fn misses_per_session(s: &HostStats) -> f64 {
    s.cache_misses as f64 / s.sessions.max(1) as f64
}

fn row(o: &Outcome) -> Vec<String> {
    let s = &o.stats;
    vec![
        s.sessions.to_string(),
        o.converged.to_string(),
        s.services.to_string(),
        format!("{}..{}", s.steps_min, s.steps_max),
        format!("{:.1}", per_service_cpu(s)),
        format!("{}%", s.cache_hit_rate_pct),
        format!("{:.1}", misses_per_session(s)),
        (s.cache_bytes >> 10).to_string(),
        s.pool_inline_fallbacks.to_string(),
    ]
}

fn bench_entry(o: &mut Obj<'_>, outcome: &Outcome) {
    let s = &outcome.stats;
    o.u64("sessions", s.sessions)
        .u64("services", s.services)
        .u64("cpu_us", s.cpu_us)
        .u64("wall_us", s.wall_us)
        .f64("cpu_us_per_service", round_to(per_service_cpu(s), 2))
        .u64("cache_hits", s.cache_hits)
        .u64("cache_misses", s.cache_misses)
        .u64("hit_rate_pct", s.cache_hit_rate_pct)
        .u64("cache_kib", s.cache_bytes >> 10)
        .u64("inline_fallbacks", s.pool_inline_fallbacks);
}

fn main() {
    let sessions: usize = std::env::var("HOST_SCALE_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);

    let base = run_host(64, 41);
    let big = run_host(sessions, 43);

    print_table(
        "E21: multi-tenant host scale (4 content classes, 1 viewer/session)",
        &[
            "sessions",
            "converged",
            "services",
            "steps/session",
            "cpu µs/service",
            "cache hit rate",
            "misses/session",
            "cache KiB",
            "inline fallbacks",
        ],
        &[row(&base), row(&big)],
    );

    let base_cost = per_service_cpu(&base.stats);
    let big_cost = per_service_cpu(&big.stats);
    println!("\nchecks:");
    println!(
        "  per-session step cost {base_cost:.1} -> {big_cost:.1} µs/service \
         ({:.2}x); scaling adds cache hits, not work.",
        big_cost / base_cost
    );
    println!(
        "  shared cache hit rate {}% at {} sessions; misses/session shrink \
         {:.1} -> {:.1} because the first tenant of each class pays for all.",
        big.stats.cache_hit_rate_pct,
        big.stats.sessions,
        misses_per_session(&base.stats),
        misses_per_session(&big.stats),
    );

    // Deterministic gates first.
    assert_eq!(
        big.stats.sessions as usize, sessions,
        "host must carry every session"
    );
    assert_eq!(
        big.converged, sessions,
        "every hosted session's viewer must converge"
    );
    assert_eq!(base.converged, 64, "baseline sessions must converge");
    assert!(
        big.stats.cache_hit_rate_pct >= 50,
        "cross-session hit rate {}% below the 50% floor",
        big.stats.cache_hit_rate_pct
    );
    assert!(
        misses_per_session(&big.stats) < misses_per_session(&base.stats),
        "misses per session must shrink as same-class tenants multiply"
    );
    assert!(
        big.stats.steps_min * 2 >= big.stats.steps_max,
        "unfair service spread: {}..{}",
        big.stats.steps_min,
        big.stats.steps_max
    );
    // The wall-clock gate: per-session step cost stays flat (±20%) as the
    // tenant count grows 64 -> 1000+.
    assert!(
        big_cost <= base_cost * 1.2,
        "per-session step cost grew {:.2}x from 64 to {} sessions, want <= 1.2x",
        big_cost / base_cost,
        sessions
    );

    // Export for obs_schema_check: host stats document + registry snapshot.
    println!();
    emit_document(
        "host stats:",
        "exp_host_scale_host.json",
        big.stats.to_json(),
    );
    emit_snapshot(big.host.registry(), "exp_host_scale");

    let json = json::object(|o| {
        o.str("schema", "adshare-bench-host/v1")
            .array("runs", |runs| {
                for outcome in [&base, &big] {
                    runs.object(|o| bench_entry(o, outcome));
                }
            });
    });
    write_bench_json("BENCH_HOST_OUT", "BENCH_host.json", &json);
}
