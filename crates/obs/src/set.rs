//! [`metric_set!`](crate::metric_set): declare a set of live metrics once.

/// Declare a struct of metric handles, naming each field, its kind and the
/// suffix it is exported under **once**:
///
/// ```
/// adshare_obs::metric_set! {
///     /// Live handles behind [`LinkStats`].
///     struct LinkCounters {
///         /// Current send-buffer occupancy.
///         backlog: gauge "backlog_bytes",
///     }
///     /// A point-in-time copy of the link's counters.
///     pub struct LinkStats {
///         /// Bytes accepted.
///         accepted: counter "tx_bytes",
///     }
/// }
/// let c = LinkCounters::default();
/// c.accepted.add(3);
/// let registry = adshare_obs::Registry::new();
/// c.register(&registry, "link.0");
/// assert_eq!(registry.counter_value("link.0.tx_bytes"), Some(3));
/// assert_eq!(c.stats().accepted, 3);
/// ```
///
/// The first struct is the handle set: `#[derive(Debug, Clone, Default)]`,
/// one [`Counter`](crate::Counter) / [`Gauge`](crate::Gauge) /
/// [`Histogram`](crate::Histogram) per field (`counter`, `gauge`,
/// `histogram`), and `register(&Registry, prefix)`, which adopts every
/// handle as `{prefix}.{suffix}`. Hot paths keep calling `.inc()` on the
/// same `Arc`-backed handles; nothing is added per update.
///
/// `register` adopts the snapshot counters first, then the other handles,
/// each in declaration order. The order is observable — it shapes the
/// registry's B-tree, so whether a metric registered lazily mid-run splits
/// a node shows up in allocation counts — and therefore fixed.
///
/// The optional second struct is a plain-`u64` snapshot: each of its fields
/// is also a counter in the handle set, and `stats()` on the handles copies
/// them out. Its field docs and visibility are the ones written here, so a
/// public snapshot keeps its documented field names (`bytes_sent`) whatever
/// suffix the registry knows the counter by (`tx_bytes`).
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Set:ident {
            $( $(#[$fmeta:meta])* $field:ident : $kind:ident $suffix:literal ),* $(,)?
        }
        $(
            $(#[$smeta:meta])*
            $svis:vis struct $Stats:ident {
                $( $(#[$sfmeta:meta])* $sfield:ident : counter $ssuffix:literal ),* $(,)?
            }
        )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        $vis struct $Set {
            $( $(#[$fmeta])* $field: $crate::metric_set!(@type $kind), )*
            $($( $sfield: $crate::Counter, )*)?
        }

        impl $Set {
            /// Adopt every handle into `registry` as `{prefix}.{suffix}`.
            $vis fn register(&self, registry: &$crate::Registry, prefix: &str) {
                $($( registry.adopt_counter(&format!("{prefix}.{}", $ssuffix), &self.$sfield); )*)?
                $( ($crate::metric_set!(@adopt $kind))(
                    registry, &format!("{prefix}.{}", $suffix), &self.$field
                ); )*
            }

            $(
                /// A point-in-time copy of the snapshot counters.
                $vis fn stats(&self) -> $Stats {
                    $Stats { $( $sfield: self.$sfield.get(), )* }
                }
            )?
        }

        $(
            $(#[$smeta])*
            #[derive(Debug, Clone, Copy, Default)]
            $svis struct $Stats {
                $( $(#[$sfmeta])* pub $sfield: u64, )*
            }
        )?
    };
    (@type counter) => { $crate::Counter };
    (@type gauge) => { $crate::Gauge };
    (@type histogram) => { $crate::Histogram };
    (@adopt counter) => { $crate::Registry::adopt_counter };
    (@adopt gauge) => { $crate::Registry::adopt_gauge };
    (@adopt histogram) => { $crate::Registry::adopt_histogram };
}
