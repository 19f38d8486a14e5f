//! Fig. 1 — example voice-based KPI with weekly regularity (A) and
//! data-based KPI with a flash-crowd peak (B).
//!
//! Prints the hourly series of `voice_blocking_ratio` for a regular
//! (office/residential) sector and `data_throughput_mbps` for a
//! commercial sector struck by a flash crowd, with the event hours
//! marked so the peak can be verified against simulation ground
//! truth.

use hotspot_bench::report::{print_header, print_row, print_section, Cell};
use hotspot_bench::{start, RunOptions, SweepFlags};
use hotspot_simnet::archetype::Archetype;
use hotspot_simnet::events::EventKind;

fn main() {
    let (_run, _, prep) =
        start("fig01_kpi_examples", "", RunOptions::default(), SweepFlags::Refused);

    let geo = prep.network.geography();
    // (A) a regular sector: prefer office (strong weekday pattern).
    let regular = prep
        .kept
        .iter()
        .position(|&orig| geo.sectors()[orig].archetype == Archetype::Office)
        .unwrap_or(0);

    // (B) a sector hit by a flash crowd, preferably commercial.
    let crowd_event = prep
        .network
        .events()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FlashCrowd { .. }))
        .find(|e| {
            e.sectors.iter().any(|s| {
                prep.kept.contains(s) && geo.sectors()[*s].archetype == Archetype::Commercial
            })
        })
        .or_else(|| {
            prep.network
                .events()
                .events()
                .iter()
                .find(|e| matches!(e.kind, EventKind::FlashCrowd { .. }))
        });

    let voice_k = 4; // voice_blocking_ratio
    let data_k = 18; // data_throughput_mbps

    print_section("panel_A_voice_blocking (3 weeks of a regular sector)");
    print_header(&["hour", "voice_blocking_ratio"]);
    let span = prep.kpis.n_time().min(3 * 168);
    for j in 0..span {
        print_row(&[Cell::from(j), Cell::from(prep.kpis.get(regular, j, voice_k))]);
    }

    if let Some(event) = crowd_event {
        let orig = *event
            .sectors
            .iter()
            .find(|s| prep.kept.contains(s))
            .unwrap_or(&event.sectors[0]);
        if let Some(kept_idx) = prep.kept.iter().position(|&k| k == orig) {
            print_section(format!(
                "panel_B_data_throughput (sector hit by flash crowd at hours {}..{})",
                event.start, event.end
            )
            .as_str());
            print_header(&["hour", "data_throughput_mbps", "event_active"]);
            let lo = event.start.saturating_sub(168);
            let hi = (event.end + 168).min(prep.kpis.n_time());
            for j in lo..hi {
                print_row(&[
                    Cell::from(j),
                    Cell::from(prep.kpis.get(kept_idx, j, data_k)),
                    Cell::from(usize::from(event.active_at(j))),
                ]);
            }
        }
    } else {
        print_section("panel_B: no flash crowd in this realisation (raise --weeks or change --seed)");
    }
}
