//! Chrome-trace / Perfetto timeline export.
//!
//! Merges the two temporal sources adshare-obs collects — completed
//! [`CompletedTrace`] stage spans and [`FlightRecorder`](crate::events)
//! events — into one Chrome-trace JSON document that loads directly in
//! `ui.perfetto.dev` (or `chrome://tracing`). Layout:
//!
//! - one track per pipeline stage (`pipeline.damage`, `pipeline.transport`,
//!   …) carrying `B`/`E` span pairs for every delivered frame, args holding
//!   the marker sequence and byte counts;
//! - one track for AH-side recorder events and one per participant,
//!   carrying instant (`ph: "i"`) events named by
//!   [`EventKind::name`](crate::events::EventKind::name).
//!
//! Serialization goes through the [`crate::json`] writer;
//! [`validate_chrome_trace`] re-parses a document and
//! checks the structural invariants Perfetto relies on — used by the
//! proptest suite and by `adshare-demo sim --trace` before writing the
//! file.

use crate::events::{Event, ACTOR_AH};
use crate::json::{self, Arr, Json, Obj};
use crate::trace::{CompletedTrace, STAGE_NAMES};

/// Synthetic pid for the whole session (Chrome traces require one).
const PID: u64 = 1;
/// First tid of the per-stage span tracks.
const TID_STAGES: u64 = 10;
/// Tid of the AH event track; participant `i` uses `TID_AH_EVENTS + 1 + i`.
const TID_AH_EVENTS: u64 = 100;
/// First tid of the capture packet tracks (historical export); a sample on
/// `lane` renders on `TID_CAPTURE + lane`.
const TID_CAPTURE: u64 = 200;

/// One captured datagram rendered as a timeline instant — the bridge that
/// lets a wire capture merge into the Chrome-trace export without this
/// crate depending on `adshare-capture` (the session layer converts
/// capture records into samples).
///
/// Timestamps must come from the same virtual clock the flight recorder
/// stamps; the exporter interleaves both sources on one axis, so a second
/// clock would render negative or misaligned spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSample {
    /// Track label shown in Perfetto, e.g. `capture.tx` or `capture.rx`.
    pub track: String,
    /// Track lane: the sample renders on tid `TID_CAPTURE + lane`. Use one
    /// lane per (direction, actor) so tracks don't interleave.
    pub lane: u64,
    /// Instant name, e.g. the stream kind (`rtp`, `rtcp`, `hip`).
    pub name: String,
    /// Virtual-time microseconds when the datagram crossed the tap.
    pub ts_us: u64,
    /// Payload bytes on the wire.
    pub bytes: u64,
    /// Originating actor id.
    pub actor: u16,
}

fn event_tid(actor: u16) -> u64 {
    if actor == ACTOR_AH {
        TID_AH_EVENTS
    } else {
        TID_AH_EVENTS + 1 + u64::from(actor)
    }
}

/// A `thread_name` metadata record: labels track `tid`.
fn push_meta(events: &mut Arr<'_>, tid: u64, name: &str) {
    events.object(|o| {
        o.str("name", "thread_name")
            .str("ph", "M")
            .u64("pid", PID)
            .u64("tid", tid)
            .object("args", |a| {
                a.str("name", name);
            });
    });
}

/// One record of phase `ph` on track `tid` at `ts`; `rest` adds whatever
/// else that phase carries (`args`, the instant scope).
fn push_event(
    events: &mut Arr<'_>,
    name: &str,
    ph: &str,
    tid: u64,
    ts: u64,
    rest: impl FnOnce(&mut Obj<'_>),
) {
    events.object(|o| {
        o.str("name", name)
            .str("ph", ph)
            .u64("pid", PID)
            .u64("tid", tid)
            .u64("ts", ts);
        rest(o);
    });
}

/// Render completed frame traces plus recorder events as Chrome-trace JSON.
///
/// Spans are emitted as adjacent `B`/`E` pairs (balanced by construction in
/// document order — the property [`validate_chrome_trace`] checks); recorder
/// events become thread-scoped instants with their payload words as args.
pub fn chrome_trace_json(traces: &[CompletedTrace], events: &[Event]) -> String {
    chrome_trace_json_with_packets(traces, events, &[])
}

/// [`chrome_trace_json`] plus capture packet tracks — the **historical**
/// export: feed it a finalized capture's embedded flight events and its
/// records converted to [`PacketSample`]s, and any past session renders as
/// a timeline.
pub fn chrome_trace_json_with_packets(
    traces: &[CompletedTrace],
    events: &[Event],
    packets: &[PacketSample],
) -> String {
    json::object(|doc| {
        doc.str("displayTimeUnit", "ms");
        doc.array("traceEvents", |out| {
            // Track metadata. The "total" pseudo-stage gets no track of its own.
            for (i, stage) in STAGE_NAMES.iter().enumerate() {
                if *stage != "total" {
                    push_meta(out, TID_STAGES + i as u64, &format!("pipeline.{stage}"));
                }
            }
            push_meta(out, TID_AH_EVENTS, "ah.events");
            let mut actors: Vec<u16> = events
                .iter()
                .map(|e| e.actor)
                .filter(|a| *a != ACTOR_AH)
                .collect();
            actors.sort_unstable();
            actors.dedup();
            for a in actors {
                push_meta(out, event_tid(a), &format!("participant {a} events"));
            }
            let mut lanes: Vec<(u64, &str)> =
                packets.iter().map(|p| (p.lane, p.track.as_str())).collect();
            lanes.sort_unstable();
            lanes.dedup_by_key(|(lane, _)| *lane);
            for (lane, track) in lanes {
                push_meta(out, TID_CAPTURE + lane, track);
            }

            // Stage spans. Virtual-time stages (damage, transport) sit at their
            // true positions; wall-clock stages (encode, fragment, decode) are
            // placed back-to-back after the span they belong to, so the frame
            // reads left-to-right even though the axes differ (see trace.rs
            // module docs).
            for t in traces {
                let spans: [(usize, u64, u64); 5] = [
                    (0, t.trace.damage_at_us, t.stages.damage_us),
                    (1, t.trace.sent_at_us, t.stages.encode_us),
                    (
                        2,
                        t.trace.sent_at_us + t.stages.encode_us,
                        t.stages.fragment_us,
                    ),
                    (3, t.trace.sent_at_us, t.stages.transport_us),
                    (4, t.delivered_at_us, t.stages.decode_us),
                ];
                for (stage_idx, ts, dur) in spans {
                    let name = format!("{} #{}", STAGE_NAMES[stage_idx], t.seq);
                    let tid = TID_STAGES + stage_idx as u64;
                    push_event(out, &name, "B", tid, ts, |o| {
                        o.object("args", |a| {
                            a.u64("ssrc", u64::from(t.ssrc))
                                .u64("seq", u64::from(t.seq))
                                .u64("window", u64::from(t.trace.window_id))
                                .u64("bytes", t.trace.bytes)
                                .u64("fragments", u64::from(t.trace.fragments));
                        });
                    });
                    push_event(out, &name, "E", tid, ts + dur, |_| {});
                }
            }

            // Recorder events and capture packet samples: thread-scoped
            // instants with their payload as `args`.
            for e in events {
                push_event(out, e.kind.name(), "i", event_tid(e.actor), e.ts_us, |o| {
                    o.str("s", "t").object("args", |a| {
                        a.u64("seq", e.seq).u64("a", e.a).u64("b", e.b);
                    });
                });
            }
            for p in packets {
                push_event(out, &p.name, "i", TID_CAPTURE + p.lane, p.ts_us, |o| {
                    o.str("s", "t").object("args", |a| {
                        a.u64("bytes", p.bytes).u64("actor", u64::from(p.actor));
                    });
                });
            }
        });
    })
}

fn field<'a>(obj: &'a Json, key: &str, idx: usize) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("traceEvents[{idx}]: missing \"{key}\""))
}

/// Structural validation of a Chrome-trace JSON document.
///
/// Checks what Perfetto's legacy JSON importer needs: the document parses
/// (so all string escaping is valid), `traceEvents` is an array, every
/// entry has a string `name` and `ph`, non-metadata entries carry integer
/// `ts`, and `B`/`E` pairs are balanced per `(pid, tid)` in document order
/// with non-negative span durations.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<(String, u64)>> =
        std::collections::HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let name = field(ev, "name", i)?
            .as_str()
            .ok_or_else(|| format!("traceEvents[{i}]: name not a string"))?
            .to_string();
        let ph = field(ev, "ph", i)?
            .as_str()
            .ok_or_else(|| format!("traceEvents[{i}]: ph not a string"))?;
        if ph == "M" {
            continue;
        }
        let ts = field(ev, "ts", i)?
            .as_u64()
            .ok_or_else(|| format!("traceEvents[{i}]: ts not a non-negative integer"))?;
        let pid = field(ev, "pid", i)?.as_u64().unwrap_or(0);
        let tid = field(ev, "tid", i)?.as_u64().unwrap_or(0);
        match ph {
            "B" => stacks.entry((pid, tid)).or_default().push((name, ts)),
            "E" => {
                let (open, begin_ts) =
                    stacks.entry((pid, tid)).or_default().pop().ok_or_else(|| {
                        format!("traceEvents[{i}]: E without open B on tid {tid}")
                    })?;
                if open != name {
                    return Err(format!(
                        "traceEvents[{i}]: E \"{name}\" closes B \"{open}\""
                    ));
                }
                if ts < begin_ts {
                    return Err(format!(
                        "traceEvents[{i}]: span \"{name}\" ends at {ts} before it begins at {begin_ts}"
                    ));
                }
            }
            "i" | "X" => {}
            other => return Err(format!("traceEvents[{i}]: unsupported ph \"{other}\"")),
        }
    }
    for ((_, tid), stack) in stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("unclosed B \"{name}\" on tid {tid}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventKind, FlightRecorder};
    use crate::trace::{FrameTrace, StageLatencies};

    fn completed(seq: u16) -> CompletedTrace {
        CompletedTrace {
            ssrc: 0x1234,
            seq,
            delivered_at_us: 9_000,
            trace: FrameTrace {
                window_id: 1,
                damage_at_us: 1_000,
                sent_at_us: 3_000,
                encode_wall_us: 150,
                fragment_wall_us: 12,
                fragments: 4,
                bytes: 5_000,
            },
            stages: StageLatencies {
                damage_us: 2_000,
                encode_us: 150,
                fragment_us: 12,
                transport_us: 6_000,
                decode_us: 40,
                total_us: 8_202,
            },
        }
    }

    #[test]
    fn export_validates_and_carries_both_sources() {
        let r = FlightRecorder::new(16);
        r.record(3_000, ACTOR_AH, EventKind::RtpTx, 7, 5_000);
        r.record(9_000, 0, EventKind::Reassembled, 7, 5_000);
        let text = chrome_trace_json(&[completed(7)], &r.snapshot());
        validate_chrome_trace(&text).expect("valid chrome trace");
        assert!(text.contains("\"rtp_tx\""));
        assert!(text.contains("transport #7"));
        assert!(text.contains("participant 0 events"));
    }

    #[test]
    fn empty_inputs_still_validate() {
        let text = chrome_trace_json(&[], &[]);
        validate_chrome_trace(&text).expect("valid chrome trace");
    }

    #[test]
    fn packet_samples_merge_into_capture_lanes() {
        let r = FlightRecorder::new(16);
        r.record(3_000, ACTOR_AH, EventKind::RtpTx, 7, 5_000);
        let packets = vec![
            PacketSample {
                track: "capture.tx".into(),
                lane: 0,
                name: "rtp".into(),
                ts_us: 3_100,
                bytes: 1_200,
                actor: ACTOR_AH,
            },
            PacketSample {
                track: "capture.rx".into(),
                lane: 1,
                name: "rtp".into(),
                ts_us: 3_400,
                bytes: 1_200,
                actor: 0,
            },
        ];
        let text = chrome_trace_json_with_packets(&[completed(7)], &r.snapshot(), &packets);
        validate_chrome_trace(&text).expect("valid merged trace");
        // Each lane is labelled once, and each sample sits on its lane's tid.
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        for (track, tid) in [("capture.tx", 200), ("capture.rx", 201)] {
            let on_tid = |ph: &str| {
                events
                    .iter()
                    .filter(|e| {
                        e.get("tid").and_then(Json::as_u64) == Some(tid)
                            && e.get("ph").and_then(Json::as_str) == Some(ph)
                    })
                    .collect::<Vec<_>>()
            };
            let meta = on_tid("M");
            assert_eq!(meta.len(), 1, "{track}");
            let label = meta[0].get("args").and_then(|a| a.get("name"));
            assert_eq!(label.and_then(Json::as_str), Some(track));
            let samples = on_tid("i");
            assert_eq!(samples.len(), 1, "{track}");
            let bytes = samples[0].get("args").and_then(|a| a.get("bytes"));
            assert_eq!(bytes.and_then(Json::as_u64), Some(1_200));
        }
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let text = "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"B\", \"pid\": 1, \"tid\": 2, \"ts\": 5}]}";
        assert!(validate_chrome_trace(text).is_err());
        let text = "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"E\", \"pid\": 1, \"tid\": 2, \"ts\": 5}]}";
        assert!(validate_chrome_trace(text).is_err());
    }

    #[test]
    fn validator_rejects_negative_and_fractional_timestamps() {
        for ts in ["-5", "0.5"] {
            let text = format!(
                "{{\"traceEvents\": [{{\"name\": \"x\", \"ph\": \"i\", \"pid\": 1, \"tid\": 2, \"ts\": {ts}}}]}}"
            );
            assert!(validate_chrome_trace(&text).is_err(), "ts {ts}");
        }
    }

    #[test]
    fn validator_rejects_mismatched_close() {
        let text = "{\"traceEvents\": [\
            {\"name\": \"a\", \"ph\": \"B\", \"pid\": 1, \"tid\": 2, \"ts\": 5},\
            {\"name\": \"b\", \"ph\": \"E\", \"pid\": 1, \"tid\": 2, \"ts\": 6}]}";
        assert!(validate_chrome_trace(text).is_err());
    }

    #[test]
    fn names_needing_escapes_survive_round_trip() {
        // A hostile sample name must leave the document parseable; the
        // validator parsing it back is the proof.
        let hostile = PacketSample {
            track: "capture\ttx".into(),
            lane: 0,
            name: "sp\"an\\ with\nnewline".into(),
            ts_us: 5,
            bytes: 1,
            actor: 0,
        };
        let text = chrome_trace_json_with_packets(&[], &[], &[hostile]);
        validate_chrome_trace(&text).expect("escaped name parses");
    }
}
