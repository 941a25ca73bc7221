//! The timeline view (paper §IV-C, Fig. 6c): temporal statistics of either
//! the total traffic/saturation per link class, or normalized mean terminal
//! metrics; a selected time range feeds
//! [`DataSetBuilder::range`](crate::dataset::DataSetBuilder::range).

use hrviz_network::{LinkClass, RunData};
use hrviz_pdes::SimTime;

/// One plotted series.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineSeries {
    /// Display label.
    pub label: String,
    /// One value per bin.
    pub values: Vec<f64>,
}

/// The timeline view model.
#[derive(Clone, Debug)]
pub struct TimelineView {
    /// Bin width of every series.
    pub bin_width: SimTime,
    /// The series.
    pub series: Vec<TimelineSeries>,
    /// Currently selected bin range `[start, end)` (bins), if any.
    pub selection: Option<(usize, usize)>,
}

impl TimelineView {
    /// Per-class link traffic over time. `None` when the run was not
    /// sampled.
    pub fn traffic(run: &RunData) -> Option<TimelineView> {
        let s = run.series.as_ref()?;
        Some(TimelineView {
            bin_width: s.sampling.bin_width,
            series: LinkClass::ALL
                .iter()
                .enumerate()
                .map(|(i, c)| TimelineSeries {
                    label: format!("{} link traffic (byte)", c.label()),
                    values: s.traffic[i].values().iter().map(|&v| v as f64).collect(),
                })
                .collect(),
            selection: None,
        })
    }

    /// Per-class link saturation over time.
    pub fn saturation(run: &RunData) -> Option<TimelineView> {
        let s = run.series.as_ref()?;
        Some(TimelineView {
            bin_width: s.sampling.bin_width,
            series: LinkClass::ALL
                .iter()
                .enumerate()
                .map(|(i, c)| TimelineSeries {
                    label: format!("{} link saturation (ns)", c.label()),
                    values: s.sat[i].values().iter().map(|&v| v as f64).collect(),
                })
                .collect(),
            selection: None,
        })
    }

    /// Normalized mean terminal metrics (latency, hops) over time.
    pub fn terminal_means(run: &RunData) -> Option<TimelineView> {
        let s = run.series.as_ref()?;
        let counts = s.recv_count.values();
        let mean = |sums: &[u64]| -> Vec<f64> {
            sums.iter()
                .zip(counts.iter().chain(std::iter::repeat(&0)))
                .map(|(&sum, &n)| if n > 0 { sum as f64 / n as f64 } else { 0.0 })
                .collect()
        };
        let normalize = |mut v: Vec<f64>| -> Vec<f64> {
            let max = v.iter().cloned().fold(0.0f64, f64::max);
            if max > 0.0 {
                for x in &mut v {
                    *x /= max;
                }
            }
            v
        };
        Some(TimelineView {
            bin_width: s.sampling.bin_width,
            series: vec![
                TimelineSeries {
                    label: "mean packet latency (normalized)".into(),
                    values: normalize(mean(s.latency_sum.values())),
                },
                TimelineSeries {
                    label: "mean hop count (normalized)".into(),
                    values: normalize(mean(s.hops_sum.values())),
                },
            ],
            selection: None,
        })
    }

    /// Number of bins across the longest series.
    pub fn num_bins(&self) -> usize {
        self.series.iter().map(|s| s.values.len()).max().unwrap_or(0)
    }

    /// Select bins `[from, to)`; returns the simulated-time range to pass
    /// to [`DataSetBuilder::range`](crate::dataset::DataSetBuilder::range).
    pub fn select_bins(&mut self, from: usize, to: usize) -> (SimTime, SimTime) {
        assert!(from < to, "empty selection");
        self.selection = Some((from, to));
        (
            SimTime(self.bin_width.as_nanos() * from as u64),
            SimTime(self.bin_width.as_nanos() * to as u64),
        )
    }

    /// Index of the bin with the largest value of series `s` (burst
    /// finding, as in the paper's AMG analysis).
    pub fn peak_bin(&self, s: usize) -> Option<usize> {
        self.series
            .get(s)?
            .values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_network::{DragonflyConfig, MsgInjection, NetworkSpec, Simulation, TerminalId};

    fn sampled_run() -> RunData {
        let spec =
            NetworkSpec::new(DragonflyConfig::canonical(2)).with_sampling(SimTime::micros(1), 256);
        let mut sim = Simulation::new(spec);
        // Two waves: t=0 and t=10us.
        for src in 0..16u32 {
            for wave in [0u64, 10_000] {
                sim.inject(MsgInjection {
                    time: SimTime(wave),
                    src: TerminalId(src),
                    dst: TerminalId((src + 20) % 72),
                    bytes: 8192,
                    job: 0,
                });
            }
        }
        sim.try_run().expect("simulation completes")
    }

    #[test]
    fn traffic_timeline_reflects_waves() {
        let run = sampled_run();
        let tl = TimelineView::traffic(&run).unwrap();
        assert_eq!(tl.series.len(), 3);
        let term = &tl.series[0]; // terminal class first
        assert!(term.label.contains("terminal"));
        assert!(term.values[0] > 0.0, "wave at t=0 must appear in bin 0");
        assert!(term.values[10] > 0.0, "wave at t=10us must appear in bin 10");
        assert!(term.values[5] == 0.0, "quiet gap between waves");
    }

    #[test]
    fn unsampled_run_has_no_timeline() {
        let spec = NetworkSpec::new(DragonflyConfig::canonical(2));
        let run = Simulation::new(spec).try_run().expect("simulation completes");
        assert!(TimelineView::traffic(&run).is_none());
        assert!(TimelineView::saturation(&run).is_none());
        assert!(TimelineView::terminal_means(&run).is_none());
    }

    #[test]
    fn selection_maps_bins_to_time() {
        let run = sampled_run();
        let mut tl = TimelineView::traffic(&run).unwrap();
        let (s, e) = tl.select_bins(10, 12);
        assert_eq!(s, SimTime::micros(10));
        assert_eq!(e, SimTime::micros(12));
        assert_eq!(tl.selection, Some((10, 12)));
    }

    #[test]
    fn terminal_means_are_normalized() {
        let run = sampled_run();
        let tl = TimelineView::terminal_means(&run).unwrap();
        for s in &tl.series {
            let max = s.values.iter().cloned().fold(0.0f64, f64::max);
            assert!(max <= 1.0 + 1e-9);
            assert!(max > 0.0, "{}", s.label);
        }
    }

    #[test]
    fn peak_bin_finds_bursts() {
        let run = sampled_run();
        let tl = TimelineView::traffic(&run).unwrap();
        let peak = tl.peak_bin(0).unwrap();
        assert!(peak == 0 || peak == 10, "peak at a wave, got bin {peak}");
        assert!(tl.peak_bin(99).is_none());
    }

    #[test]
    #[should_panic(expected = "empty selection")]
    fn empty_selection_rejected() {
        let run = sampled_run();
        let mut tl = TimelineView::traffic(&run).unwrap();
        tl.select_bins(5, 5);
    }
}
