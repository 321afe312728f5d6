//! The metric registry: hierarchical dot-separated names mapped to live
//! metric handles, plus point-in-time snapshots with a JSON exporter.

use crate::json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A shared, thread-safe collection of named metrics.
///
/// Names are hierarchical with `.` separators (`ah.encode_us`,
/// `participant.0.udp.tx_bytes`). Registration is idempotent: asking for an
/// existing name returns a handle to the same metric; asking with a
/// *different* metric type panics (programmer error, and silently returning
/// a fresh metric would split the data).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        extract: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut map = self.inner.lock().unwrap();
        let entry = map.entry(name.to_string()).or_insert_with(make);
        extract(entry)
            .unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", entry.kind()))
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            || Metric::Counter(Counter::new()),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            || Metric::Gauge(Gauge::new()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            || Metric::Histogram(Histogram::new()),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Register an *existing* counter handle under `name` ("adoption"):
    /// structs keep their own typed handles on the hot path while the
    /// registry exposes the same atomics for export. Idempotent for the same
    /// underlying counter; panics if `name` is already bound to a different
    /// metric.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        let mut map = self.inner.lock().unwrap();
        match map.get(name) {
            None => {
                map.insert(name.to_string(), Metric::Counter(counter.clone()));
            }
            Some(Metric::Counter(existing)) if existing.same_as(counter) => {}
            Some(existing) => panic!(
                "metric {name:?} already registered as a different {}",
                existing.kind()
            ),
        }
    }

    /// Counter analogue of [`Registry::adopt_counter`] for gauges.
    pub fn adopt_gauge(&self, name: &str, gauge: &Gauge) {
        let mut map = self.inner.lock().unwrap();
        match map.get(name) {
            None => {
                map.insert(name.to_string(), Metric::Gauge(gauge.clone()));
            }
            Some(Metric::Gauge(existing)) if existing.same_as(gauge) => {}
            Some(existing) => panic!(
                "metric {name:?} already registered as a different {}",
                existing.kind()
            ),
        }
    }

    /// Counter analogue of [`Registry::adopt_counter`] for histograms.
    pub fn adopt_histogram(&self, name: &str, histogram: &Histogram) {
        let mut map = self.inner.lock().unwrap();
        match map.get(name) {
            None => {
                map.insert(name.to_string(), Metric::Histogram(histogram.clone()));
            }
            Some(Metric::Histogram(existing)) if existing.same_as(histogram) => {}
            Some(existing) => panic!(
                "metric {name:?} already registered as a different {}",
                existing.kind()
            ),
        }
    }

    /// Current value of counter `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.inner.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// A frozen copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.lock().unwrap();
        Snapshot {
            metrics: map
                .iter()
                .map(|(name, m)| {
                    let v = match m {
                        Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                        Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                        Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                    };
                    (name.clone(), v)
                })
                .collect(),
        }
    }
}

/// One metric's frozen state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a [`Registry`], exportable as JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Metric name → frozen state, sorted by name.
    pub metrics: BTreeMap<String, MetricSnapshot>,
}

/// Schema identifier embedded in every exported snapshot.
pub const SNAPSHOT_SCHEMA: &str = "adshare-obs/v1";

impl Snapshot {
    /// Frozen state of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.get(name)
    }

    /// Counter value of `name` (None if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricSnapshot::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value of `name` (None if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricSnapshot::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state of `name` (None if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricSnapshot::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of every counter whose name starts with `prefix` and ends with
    /// `suffix` — the roll-up a multi-session host uses to aggregate
    /// per-session labels (e.g. prefix `"host.session."`, suffix
    /// `".steps"`) into one host-level figure. Non-counter metrics in the
    /// range are skipped.
    pub fn sum_counters_with(&self, prefix: &str, suffix: &str) -> u64 {
        // BTreeMap range-scan: names are sorted, so everything with the
        // prefix is contiguous.
        self.metrics
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, m)| match m {
                MetricSnapshot::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Serialize to the `adshare-obs/v1` JSON document:
    ///
    /// ```json
    /// {
    ///   "schema": "adshare-obs/v1",
    ///   "metrics": {
    ///     "ah.encodes": {"type": "counter", "value": 12},
    ///     "net.backlog": {"type": "gauge", "value": -3},
    ///     "ah.encode_us": {"type": "histogram", "count": 9, "sum": 1234,
    ///                       "min": 80, "max": 400, "mean": 137,
    ///                       "p50": 127, "p90": 255, "p99": 400,
    ///                       "buckets": [[127, 5], [255, 3], [511, 1]]}
    ///   }
    /// }
    /// ```
    ///
    /// Histogram `buckets` are `[inclusive_upper_bound, count]` pairs for
    /// non-empty buckets only.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("schema", SNAPSHOT_SCHEMA);
            o.object("metrics", |metrics| {
                for (name, m) in &self.metrics {
                    metrics.object(name, |o| match m {
                        MetricSnapshot::Counter(v) => {
                            o.str("type", "counter").u64("value", *v);
                        }
                        MetricSnapshot::Gauge(v) => {
                            o.str("type", "gauge").i64("value", *v);
                        }
                        MetricSnapshot::Histogram(h) => {
                            o.str("type", "histogram")
                                .u64("count", h.count)
                                .u64("sum", h.sum)
                                .u64("min", h.min)
                                .u64("max", h.max)
                                .u64("mean", h.mean())
                                .u64("p50", h.p50())
                                .u64("p90", h.p90())
                                .u64("p99", h.p99())
                                .array("buckets", |buckets| {
                                    for (le, c) in h.nonzero_buckets() {
                                        buckets.array(|pair| {
                                            pair.u64(le).u64(c);
                                        });
                                    }
                                });
                        }
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("ah.encodes");
        let b = r.counter("ah.encodes");
        a.inc();
        b.inc();
        assert_eq!(r.counter_value("ah.encodes"), Some(2));
        assert!(a.same_as(&b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn adoption_exposes_existing_handles() {
        let r = Registry::new();
        let c = Counter::new();
        c.add(41);
        r.adopt_counter("udp.tx", &c);
        r.adopt_counter("udp.tx", &c); // idempotent for the same handle
        c.inc();
        assert_eq!(r.counter_value("udp.tx"), Some(42));

        let h = Histogram::new();
        h.record(9);
        r.adopt_histogram("lat", &h);
        assert_eq!(r.snapshot().histogram("lat").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn adopting_over_foreign_counter_panics() {
        let r = Registry::new();
        r.adopt_counter("udp.tx", &Counter::new());
        r.adopt_counter("udp.tx", &Counter::new());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("a.count").add(3);
        r.gauge("b.depth").set(-7);
        let h = r.histogram("c.lat_us");
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let text = snap.to_json();
        let doc = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(SNAPSHOT_SCHEMA)
        );
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("a.count")
                .unwrap()
                .get("value")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(
            metrics
                .get("b.depth")
                .unwrap()
                .get("value")
                .unwrap()
                .as_i64(),
            Some(-7)
        );
        let hist = metrics.get("c.lat_us").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(1000));
        assert!(hist.get("p50").unwrap().as_u64().unwrap() >= 20);
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert!(!buckets.is_empty());
    }

    #[test]
    fn snapshot_accessors() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(-3);
        r.histogram("h").record(100);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(5));
        assert_eq!(s.counter("h"), None);
        assert_eq!(s.gauge("g"), Some(-3));
        assert_eq!(s.gauge("c"), None);
        assert_eq!(s.histogram("h").unwrap().max, 100);
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn sum_counters_with_rolls_up_per_session_labels() {
        let r = Registry::new();
        r.counter("host.session.0.steps").add(10);
        r.counter("host.session.1.steps").add(32);
        r.counter("host.session.10.steps").add(100);
        r.counter("host.session.1.cpu_us").add(999); // other suffix
        r.counter("host.steps").add(7); // outside the prefix
        r.gauge("host.session.2.steps").set(50); // wrong type: skipped
        let s = r.snapshot();
        assert_eq!(s.sum_counters_with("host.session.", ".steps"), 142);
        assert_eq!(s.sum_counters_with("host.session.", ".cpu_us"), 999);
        assert_eq!(s.sum_counters_with("relay.", ".steps"), 0);
    }
}
