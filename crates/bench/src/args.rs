//! Minimal command-line parsing for the `experiments` driver.
//!
//! No external CLI crate is pulled in: the driver accepts a handful of
//! `--flag value` pairs and `--quick` for a scaled-down smoke run.

/// Parsed experiment options with paper defaults.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Objects for single-population experiments (paper default 100K).
    pub objects: usize,
    /// Ticks (time units) to simulate (paper default 100).
    pub ticks: usize,
    /// Grid cells per side.
    pub grid: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of standing queries whose metrics are averaged.
    pub queries: usize,
    /// Scale everything down for a fast smoke run.
    pub quick: bool,
    /// Directory for CSV output.
    pub out_dir: String,
    /// Experiment ids to run (`--only e1,e8`); empty means all.
    pub only: Vec<String>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            objects: 100_000,
            ticks: 100,
            grid: 64,
            seed: 7,
            queries: 8,
            quick: false,
            out_dir: "results".to_string(),
            only: Vec::new(),
        }
    }
}

impl ExpArgs {
    /// Parse `std::env::args()`, panicking with a usage message on
    /// malformed input.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = ExpArgs::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--objects" => args.objects = value("--objects").parse().expect("--objects"),
                "--ticks" => args.ticks = value("--ticks").parse().expect("--ticks"),
                "--grid" => args.grid = value("--grid").parse().expect("--grid"),
                "--seed" => args.seed = value("--seed").parse().expect("--seed"),
                "--queries" => args.queries = value("--queries").parse().expect("--queries"),
                "--out" => args.out_dir = value("--out"),
                "--only" => args.only = value("--only").split(',').map(str::to_string).collect(),
                "--quick" => args.quick = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --only e1,e8,… --objects N --ticks N --grid N --seed N --queries N --out DIR --quick"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        if args.quick {
            args.objects = args.objects.min(5_000);
            args.ticks = args.ticks.min(20);
            args.queries = args.queries.min(4);
        }
        args
    }

    /// The object-count sweep of Figures 7/9 (10K..100K), scaled when
    /// `--quick`.
    pub fn object_sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![1_000, 2_500, 5_000]
        } else {
            (1..=10).map(|i| i * 10_000).collect()
        }
    }

    /// The grid-size sweep of Figure 6, scaled when `--quick`.
    pub fn grid_sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![8, 16, 32, 64]
        } else {
            vec![8, 16, 32, 64, 96, 128, 192, 256]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> ExpArgs {
        ExpArgs::parse_from(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_paper() {
        let a = parse(&[]);
        assert_eq!(a.objects, 100_000);
        assert_eq!(a.ticks, 100);
        assert_eq!(a.grid, 64);
    }

    #[test]
    fn flags_override() {
        let a = parse(&[
            "--objects",
            "1234",
            "--ticks",
            "5",
            "--grid",
            "32",
            "--seed",
            "9",
        ]);
        assert_eq!(a.objects, 1234);
        assert_eq!(a.ticks, 5);
        assert_eq!(a.grid, 32);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn quick_scales_down() {
        let a = parse(&["--quick"]);
        assert!(a.objects <= 5_000);
        assert!(a.ticks <= 20);
        assert_eq!(a.object_sweep().len(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_rejected() {
        parse(&["--nope"]);
    }
}
