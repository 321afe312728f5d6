//! Capture → replay, end to end: a scenario-suite session recorded to an
//! `adshare-capture/v1` file replays bit-exact (wire digest and decoded
//! surfaces), exports a valid historical Perfetto timeline, ships its ring
//! capture inside CRITICAL black-box dumps, reports ring truncation
//! explicitly, and pre-warms a re-share's encode cache from a warm file.
//! Property tests pin replay determinism down over arbitrary netsim
//! loss/reorder/duplication schedules.

use adshare::capture::{manifest_json, CaptureError};
use adshare::obs::{json, validate_chrome_trace, DumpSink, EventKind, HealthConfig};
use adshare::prelude::*;
use adshare::screen::workload::{Typing, Workload};
use adshare::session::scenario::presets;
use adshare_host::HostConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn artifact_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// The acceptance criterion, end to end: a scenario-suite run (sustained
/// churn: joins, leaves, PLI refreshes, mild loss) recorded to a capture
/// file + manifest sidecar, read back from disk, and replayed through
/// fresh participants — the wire digest and every decoded-surface digest
/// must match bit-exact, and the historical timeline must validate.
#[test]
fn scenario_suite_run_replays_bit_exact_from_disk() {
    let dir = artifact_dir("capture_replay_churn");
    let mut scn = presets::churn(0xCA97);
    scn.capture = Some(ScenarioCapture {
        consent: true,
        mode: CaptureMode::Full,
    });
    let (outcome, mut s) = run_scenario(&scn);
    assert!(
        outcome.passed,
        "oracle violations: {:?}",
        outcome.violations
    );

    // Freeze (embedding the flight-recorder ring), then summarize.
    s.finalize_capture().expect("capture armed");
    let manifest = s.capture_manifest().expect("capture armed");
    let cap = s.capture().expect("capture armed");
    assert_eq!(
        cap.wire_digest(),
        s.wire_digest(),
        "a full capture's egress fold must equal the session wire digest"
    );

    let cap_path = dir.join("churn.bin");
    let man_path = dir.join("churn.json");
    cap.write_to(&cap_path).expect("write capture");
    std::fs::write(&man_path, manifest_json(&manifest)).expect("write manifest");

    // Read back from disk like `adshare-demo replay` does.
    let capture = read_capture(&cap_path).expect("capture parses");
    let manifest =
        parse_manifest(&std::fs::read_to_string(&man_path).expect("read manifest")).unwrap();
    assert!(capture.header.consent, "consent flag must persist");
    assert!(!capture.header.ring, "full capture is not a ring");

    let report = replay(&capture, Some(&manifest));
    assert!(report.records_fed > 0, "replay fed no ingress records");
    assert!(
        !report.surfaces.is_empty(),
        "replay rebuilt no participant surfaces"
    );
    // Every actor the manifest recorded (the still-active participants —
    // leavers have no final surface) must be rebuilt and checked.
    assert!(!manifest.surface_digests.is_empty());
    for &(actor, _) in &manifest.surface_digests {
        assert!(
            report
                .surfaces
                .iter()
                .any(|sc| sc.actor == actor && sc.recorded.is_some()),
            "manifest actor {actor} missing from replay"
        );
    }
    assert!(
        report.bit_exact(),
        "replay diverged: wire 0x{:016x} vs recorded {:?}, surfaces {:?}",
        report.wire_digest,
        report.recorded_wire_digest,
        report.surfaces
    );

    // Historical Perfetto export from the capture file alone. The validator
    // parses every record and rejects a `ts` that is not a non-negative
    // integer, so a merged timeline cannot carry a negative timestamp.
    let trace = historical_chrome_trace(&capture);
    validate_chrome_trace(&trace).expect("historical timeline validates");
    assert!(trace.contains("capture.rx"), "packet lanes missing");
}

/// A relay-topology schedule records like a direct one: a reduced flash
/// crowd (twelve joiners behind one relay, half of them leaving again)
/// asks for a full capture through `FlashCrowd::capture`, and the capture
/// replays bit-exact — the wire digest and every surviving joiner's
/// surface.
#[test]
fn flash_crowd_capture_replays_bit_exact() {
    let dir = artifact_dir("capture_replay_flash_crowd");
    let mut fc = FlashCrowd::new(0xF1A5_CA97);
    fc.joiners = 12;
    fc.join_start_us = 1_000_000;
    fc.leave_half_at_us = Some(2_500_000);
    fc.workload_until_us = 3_500_000;
    fc.duration_us = 4_500_000;
    fc.capture = Some(ScenarioCapture {
        consent: true,
        mode: CaptureMode::Full,
    });
    let (outcome, mut sim) = run_flash_crowd(&fc);
    assert!(
        outcome.passed,
        "oracle violations: {:?}",
        outcome.violations
    );

    sim.finalize_capture().expect("capture armed");
    let manifest = sim.capture_manifest().expect("capture armed");
    assert_eq!(
        manifest.surface_digests.len(),
        6,
        "one per surviving joiner"
    );
    let (cap_path, man_path) = (dir.join("flash_crowd.bin"), dir.join("flash_crowd.json"));
    sim.capture()
        .expect("capture armed")
        .write_to(&cap_path)
        .expect("write capture");
    std::fs::write(&man_path, manifest_json(&manifest)).expect("write manifest");

    let capture = read_capture(&cap_path).expect("capture parses");
    let manifest = parse_manifest(&std::fs::read_to_string(&man_path).unwrap()).unwrap();
    let report = replay(&capture, Some(&manifest));
    assert!(
        report.bit_exact(),
        "replay diverged: wire 0x{:016x} vs recorded {:?}, surfaces {:?}",
        report.wire_digest,
        report.recorded_wire_digest,
        report.surfaces
    );
    for &(actor, _) in &manifest.surface_digests {
        assert!(
            report
                .surfaces
                .iter()
                .any(|sc| sc.actor == actor && sc.recorded.is_some()),
            "manifest actor {actor} missing from replay"
        );
    }
}

/// Arming is consent-gated at every level: the sink refuses, and so does
/// the session wrapper.
#[test]
fn arming_without_consent_is_refused() {
    let d = Desktop::new(160, 120);
    let mut s = SimSession::new(d, AhConfig::default(), 7);
    let err = s
        .arm_capture(false, CaptureMode::Full, 7)
        .expect_err("must refuse");
    assert_eq!(err, CaptureError::ConsentRequired);
    assert!(s.capture().is_none(), "refused arm must leave no sink");
}

/// Forcing a CRITICAL transition with auto-capture enabled must write the
/// ring capture next to the black box, reference it as `capture_path`, and
/// the referenced file must parse and replay without error.
#[test]
fn critical_dump_ships_replayable_ring_capture() {
    let dir = artifact_dir("capture_replay_critical");
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(30, 30, 300, 220), [250, 250, 250, 255]);
    let mut s = SimSession::new(d, AhConfig::default(), 0xC817);
    {
        let mut engine = s.obs().health.lock().unwrap();
        // Pull the loss CRITICAL threshold below what a 5% link produces.
        engine.set_config(HealthConfig {
            loss: (0.005, 0.01),
            ..HealthConfig::default()
        });
        engine.set_sink(DumpSink::Dir(dir.clone()));
    }
    s.enable_auto_capture(true, 2_000_000, dir.clone(), 0xC817)
        .expect("consent supplied");

    let p = s.add_udp_participant(
        Layout::Original,
        LinkConfig {
            loss: 0.05,
            delay_us: 20_000,
            jitter_us: 5_000,
            ..LinkConfig::default()
        },
        LinkConfig::default(),
        None,
        0xC817,
    );
    s.run_until(10_000, 60_000_000, |s| s.converged(p))
        .expect("initial sync");
    let mut wl = Typing::new(w, 2);
    let mut rng = StdRng::seed_from_u64(0xC817);
    for i in 0..150 {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
        if i % 15 == 14 {
            s.obs().health_check(s.clock.now_us());
        }
    }
    assert!(
        s.obs().health.lock().unwrap().dumps() >= 1,
        "tightened SLO under 5% loss must dump"
    );

    let engine = s.obs().health.lock().unwrap();
    let dump = engine.last_dump().expect("dump retained");
    let doc = json::parse(dump).expect("black box is JSON");
    let capture_path = doc
        .get("capture_path")
        .and_then(|p| p.as_str())
        .expect("black box must reference the auto-armed capture")
        .to_string();
    drop(engine);

    let capture = read_capture(std::path::Path::new(&capture_path)).expect("capture parses");
    assert!(capture.header.ring, "auto-armed capture must be a ring");
    assert!(capture.header.consent);
    assert!(!capture.records.is_empty(), "ring capture is empty");
    // Replays without a manifest: digests computed, nothing panics.
    let report = replay(&capture, None);
    assert!(report.records_fed > 0, "ring replay fed nothing");
}

/// When the ring overwrites, the loss is reported explicitly: manifest
/// truncation accounting stays self-consistent and the flight recorder
/// carries `CaptureTruncated` events with running totals.
#[test]
fn ring_truncation_is_reported_explicitly() {
    let mut d = Desktop::new(320, 240);
    let w = d.create_window(1, Rect::new(10, 10, 200, 150), [240, 240, 240, 255]);
    let mut s = SimSession::new(d, AhConfig::default(), 0x717);
    // A ring far smaller than the run, so it must overwrite.
    s.arm_capture(true, CaptureMode::Ring { window_us: 400_000 }, 0x717)
        .expect("consented");
    let p = s.add_udp_participant(
        Layout::Original,
        LinkConfig::default(),
        LinkConfig::default(),
        None,
        0x717,
    );
    s.run_until(10_000, 60_000_000, |s| s.converged(p))
        .expect("initial sync");
    let mut wl = Typing::new(w, 3);
    let mut rng = StdRng::seed_from_u64(0x717);
    for _ in 0..90 {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
    }
    s.finalize_capture().expect("capture armed");
    let manifest = s.capture_manifest().expect("capture armed");
    assert!(manifest.ring);
    assert_eq!(manifest.window_us, 400_000);
    assert!(manifest.truncated, "a 0.4 s ring over a 3 s run must drop");
    assert!(manifest.truncated_records > 0);
    assert!(manifest.truncated_bytes > 0);
    assert_eq!(
        manifest.truncated,
        manifest.truncated_records > 0,
        "truncation marker must agree with the dropped-record count"
    );
    assert!(
        manifest.duration_us <= 400_000,
        "retained span {} exceeds the ring window",
        manifest.duration_us
    );
    // The manifest sidecar round-trips.
    let back = parse_manifest(&manifest_json(&manifest)).expect("manifest parses");
    assert_eq!(back, manifest);
    // Explicit truncation events with monotone running totals.
    let truncs: Vec<_> = s
        .obs()
        .recorder
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == EventKind::CaptureTruncated)
        .collect();
    assert!(!truncs.is_empty(), "no CaptureTruncated events recorded");
    assert!(
        truncs.windows(2).all(|w| w[0].a <= w[1].a),
        "truncation totals must be monotone"
    );
}

/// Encode-cache persistence: a warm file exported from one host pre-warms
/// a fresh host, so an identical re-share re-encodes less — strictly more
/// cache hits and strictly fewer misses than the cold run — and the
/// `capture.*` gauges report the transfer.
#[test]
fn warm_file_prewarms_reshare_encode_cache() {
    const T_END_US: u64 = 600_000;
    fn desk() -> (Desktop, adshare::screen::wm::WindowId) {
        let mut d = Desktop::new(320, 240);
        let win = d.create_window(1, Rect::new(16, 16, 192, 128), [24, 48, 72, 255]);
        (d, win)
    }
    fn workload(win: adshare::screen::wm::WindowId) -> HostWorkload {
        let mut tick = 0u32;
        Box::new(move |sess: &mut SimSession, _now| {
            tick += 1;
            let c = ((tick * 13) % 200) as u8 + 20;
            let x = (tick % 3) * 48;
            sess.ah
                .desktop_mut()
                .fill(win, Rect::new(x, 0, 48, 48), [c, c ^ 0x5a, 90, 255]);
            tick < 30
        })
    }
    fn run_host(warm: Option<&[u8]>) -> (u64, u64, Vec<u8>) {
        let mut host = MultiHost::new(HostConfig::default());
        let ns = adshare_host::shared_namespace(&AhConfig::default());
        if let Some(bytes) = warm {
            let loaded = host.prewarm(ns, bytes).expect("warm file parses");
            assert!(loaded > 0, "prewarm accepted nothing");
            assert_eq!(
                host.registry().gauge("capture.prewarm_entries").get(),
                loaded as i64
            );
        }
        let (d, win) = desk();
        let idx = host.add_session(d, AhConfig::default(), 5, CacheSharing::Shared);
        host.session_mut(idx).add_udp_participant(
            Layout::Original,
            LinkConfig::default(),
            LinkConfig::default(),
            None,
            5 ^ 0x77,
        );
        host.set_workload(idx, workload(win));
        host.run_until(T_END_US);
        let warm_out = host.export_warm(ns, 512);
        (host.cache().hits(), host.cache().misses(), warm_out)
    }

    let (cold_hits, cold_misses, warm_file) = run_host(None);
    assert!(
        host_warm_entry_count(&warm_file) > 0,
        "cold run exported no warm entries"
    );
    let (warm_hits, warm_misses, _) = run_host(Some(&warm_file));
    assert!(
        warm_hits > cold_hits,
        "pre-warmed re-share must hit more: {warm_hits} vs cold {cold_hits}"
    );
    assert!(
        warm_misses < cold_misses,
        "pre-warmed re-share must miss less: {warm_misses} vs cold {cold_misses}"
    );
}

fn host_warm_entry_count(warm_file: &[u8]) -> usize {
    adshare::capture::decode_entries(warm_file)
        .expect("warm file parses")
        .len()
}

// ---------------------------------------------------------------------------
// Property tests: replay determinism over arbitrary schedules.
// ---------------------------------------------------------------------------

/// Decode integer material into a hostile link: loss, duplication, delay,
/// jitter (reordering), and optional rate caps.
fn decode_link(x: u32, y: u32) -> LinkConfig {
    LinkConfig {
        loss: f64::from(x % 80) / 1000.0,       // 0–7.9 %
        duplicate: f64::from(y % 150) / 1000.0, // 0–14.9 %
        delay_us: u64::from(x % 5) * 10_000,    // 0–40 ms
        jitter_us: u64::from(y % 6) * 2_000,    // 0–10 ms of reorder
        rate_bps: match x % 4 {
            0 => Some(400_000 + u64::from(y % 8) * 200_000),
            _ => None,
        },
        ..LinkConfig::default()
    }
}

/// Run a short typing session under the decoded loss/reorder schedule with
/// a full capture armed; return the serialized capture + manifest.
fn record_session(seed: u64, links: &[(u32, u32)], step_raw: u32) -> (Vec<u8>, ManifestSummary) {
    let mut d = Desktop::new(320, 240);
    let w = d.create_window(1, Rect::new(12, 12, 220, 160), [245, 245, 245, 255]);
    let mut s = SimSession::new(d, AhConfig::default(), seed);
    s.arm_capture(true, CaptureMode::Full, seed)
        .expect("consented");
    for (i, &(x, y)) in links.iter().enumerate() {
        s.add_udp_participant(
            Layout::Original,
            decode_link(x, y),
            LinkConfig::default(),
            None,
            seed ^ (i as u64),
        );
    }
    // A mid-run link step on participant 0 (bandwidth cliff / loss spike).
    s.set_link_schedule(
        0,
        vec![LinkStep {
            at_us: 600_000 + u64::from(step_raw % 5) * 200_000,
            cfg: decode_link(step_raw, step_raw.rotate_left(7)),
        }],
    );
    let mut wl = Typing::new(w, 3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    for _ in 0..60 {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
    }
    s.finalize_capture().expect("capture armed");
    let manifest = s.capture_manifest().expect("capture armed");
    let bytes = s.capture().expect("capture armed").to_bytes();
    assert_eq!(
        manifest.wire_digest,
        s.wire_digest(),
        "full-capture fold must equal the live session wire digest"
    );
    (bytes, manifest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Capture → replay of an arbitrary loss/reorder/duplication schedule
    /// reproduces the live session bit-exact: the capture parses, its
    /// egress fold equals the recorded wire digest, and every replayed
    /// surface matches the recorded per-actor digest.
    #[test]
    fn arbitrary_schedules_replay_bit_exact(
        seed in 0u64..1 << 32,
        links in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..3),
        step_raw in any::<u32>(),
    ) {
        let (bytes, manifest) = record_session(seed, &links, step_raw);
        let capture = parse_capture(&bytes).expect("capture parses");
        let report = replay(&capture, Some(&manifest));
        prop_assert!(report.records_fed > 0);
        prop_assert!(
            report.bit_exact(),
            "replay diverged: wire 0x{:016x} vs recorded {:?}, surfaces {:?}",
            report.wire_digest,
            report.recorded_wire_digest,
            report.surfaces
        );
        // And the historical timeline stays valid for any capture.
        let trace = historical_chrome_trace(&capture);
        prop_assert!(validate_chrome_trace(&trace).is_ok());
    }
}
