//! Pinned inputs. The content generators (`adshare_screen::workload`,
//! `photo_frame`) live outside the benchmark's own files; a change to one
//! of them would change what every workload paints and read as a speed-up
//! or a slow-down. Each run therefore first paints a short prefix of every
//! workload at a fixed seed on bare desktops and compares its digest with
//! the value pinned here, and refuses to measure if they differ.

use crate::workloads::Spec;

/// Seed the pins were taken at (also the default `--seed`).
pub const PIN_SEED: u64 = 11;

/// Ticks painted for the pin.
const PIN_TICKS: u32 = 32;

/// `workload → digest of its first PIN_TICKS painted ticks at PIN_SEED`.
/// Regenerate with `e2e pins` after a deliberate generator change, and
/// measure the baseline again.
const PINS: [(&str, u64); 6] = [
    ("typing_udp", 0x999f_9575_e8d1_1e8b),
    ("photo_png_udp", 0xc2fb_a540_231a_ea3f),
    ("video_dct_udp", 0xa384_23ac_9358_edfb),
    ("office_tcp", 0x19b2_265c_902f_cbc1),
    ("relay_tree_tiers", 0x377e_d151_4814_b21b),
    ("host_64", 0xd647_4b9f_5ea5_ca25),
];

/// Paint the pin prefix of `spec` and digest every generated input and the
/// final content of every shared window.
pub fn input_pin(spec: &Spec) -> u64 {
    let mut plan = spec.plan(PIN_SEED);
    let mut digest = plan.input;
    let per_desktop = plan.desktops.len() > 1;
    for _ in 0..PIN_TICKS {
        for (i, p) in plan.painters.iter_mut().enumerate() {
            p.prepare(&mut digest);
            // A host has one painter per session; a single session has
            // every painter on its one desktop.
            let d = if per_desktop { i } else { 0 };
            p.apply(&mut plan.desktops[d].0);
        }
    }
    for (desktop, window) in &plan.desktops {
        let content = desktop
            .window_content(*window)
            .expect("shared window exists");
        digest.fold_bytes(content.data());
    }
    digest.value()
}

/// The pinned value for `name`.
pub fn pinned(name: &str) -> Option<u64> {
    PINS.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Fail unless `spec` still paints what it painted when it was pinned.
pub fn verify(spec: &Spec) -> Result<(), String> {
    let got = input_pin(spec);
    match pinned(spec.name) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "{}: input pin mismatch: generators paint {got:#018x}, pinned {want:#018x}; a content \
             generator outside the benchmark changed, so results are not comparable with the baseline",
            spec.name
        )),
        None => Err(format!("{}: no pinned input digest", spec.name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn every_workload_is_pinned_and_still_paints_the_same() {
        for spec in &SPECS {
            assert_eq!(verify(spec), Ok(()), "{}", spec.name);
        }
    }
}
