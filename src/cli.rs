//! Typed command-line options for `gpures`.
//!
//! The binary used to funnel every flag through one untyped
//! `BTreeMap<String, String>` bag: any `--typo` was silently ignored, a
//! missing value produced an ad-hoc string error, and the usage text was
//! maintained by hand in parallel with the parsing code. This module
//! replaces that with *declared* flag tables: each subcommand owns a
//! [`FlagSet`] listing exactly the flags it accepts, parsing rejects
//! unknown flags and missing values as [`DataError::Usage`], and the
//! per-subcommand usage line is generated from the same table the parser
//! reads — the help can no longer drift from the accepted surface.
//!
//! Flags shared across subcommands (`--workers`, `--chunk-bytes`,
//! `--metrics`, `--records`) are defined once as constants so their
//! spelling, metavar, and help text stay identical everywhere.

use dr_xid::DataError;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One declared flag: `--name VALUE`.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Metavar shown in usage (`DIR`, `N`, `FILE`, ...).
    pub value: &'static str,
    /// One-line help.
    pub help: &'static str,
    /// Required flags missing at parse time are a usage error.
    pub required: bool,
}

impl Flag {
    pub const fn optional(name: &'static str, value: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value,
            help,
            required: false,
        }
    }

    pub const fn required(name: &'static str, value: &'static str, help: &'static str) -> Self {
        Flag {
            name,
            value,
            help,
            required: true,
        }
    }
}

/// `--workers N`: Stage I / sweep worker-pool override (shared).
pub const WORKERS: Flag = Flag::optional(
    "workers",
    "N",
    "worker pool width (positive; default: all cores, or DR_PAR_THREADS)",
);
/// `--chunk-bytes N`: streaming ingestion chunk size (shared).
pub const CHUNK_BYTES: Flag = Flag::optional(
    "chunk-bytes",
    "N",
    "streaming chunk size in bytes (positive; default: sized to the worker pool)",
);
/// `--metrics PATH`: export `gpures-metrics/v1` JSON (shared).
pub const METRICS: Flag = Flag::optional(
    "metrics",
    "PATH",
    "export per-stage spans/counters/gauges/histograms (gpures-metrics/v1 JSON)",
);
/// `--records PATH`: tee `ErrorRecord`s into a columnar store (shared).
pub const RECORDS: Flag = Flag::optional(
    "records",
    "PATH",
    "tee extracted ErrorRecords into a columnar store",
);
/// `--nodes N`: MTBE normalization population (shared by `analyze`/`watch`).
pub const NODES: Flag = Flag::optional("nodes", "N", "node population for MTBE normalization");
/// `--hours H`: observation window (shared by `analyze`/`watch`).
pub const HOURS: Flag = Flag::optional(
    "hours",
    "H",
    "observation window in hours (default 855 days)",
);
/// `--dt SECS`: coalescing window (shared by `analyze`/`watch`).
pub const DT: Flag = Flag::optional("dt", "SECS", "coalescing window (default 5)");

/// A subcommand's declared surface: its flags plus optional positional
/// arguments.
#[derive(Clone, Copy, Debug)]
pub struct FlagSet {
    /// Subcommand name (`campaign`, `sweep`, ...).
    pub cmd: &'static str,
    /// Trailing summary for the usage line (may be empty).
    pub summary: &'static str,
    pub flags: &'static [Flag],
    /// Positional metavar (e.g. `BATTERY...`); `None` rejects positionals.
    pub positional: Option<&'static str>,
    /// With `positional` set: whether at least one is required.
    pub positional_required: bool,
}

impl FlagSet {
    /// The generated one-line usage for this subcommand.
    pub fn usage_line(&self) -> String {
        let mut s = format!("gpures {}", self.cmd);
        if let Some(meta) = self.positional {
            s.push(' ');
            if self.positional_required {
                s.push_str(meta);
            } else {
                s.push_str(&format!("[{meta}]"));
            }
        }
        for f in self.flags {
            if f.required {
                s.push_str(&format!(" --{} {}", f.name, f.value));
            } else {
                s.push_str(&format!(" [--{} {}]", f.name, f.value));
            }
        }
        if !self.summary.is_empty() {
            s.push_str(&format!("   ({})", self.summary));
        }
        s
    }

    /// The full usage block: the line above plus per-flag help.
    pub fn usage(&self) -> String {
        let mut s = self.usage_line();
        for f in self.flags {
            s.push_str(&format!("\n  --{} {}  {}", f.name, f.value, f.help));
        }
        s
    }

    fn lookup(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// Whether `args` ask for this subcommand's help: `--help` or `-h`
    /// where a flag may stand, not as the value of a declared flag.
    pub fn asks_for_help(&self, args: &[String]) -> bool {
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return true;
            }
            if a.strip_prefix("--").and_then(|name| self.lookup(name)).is_some() {
                it.next();
            }
        }
        false
    }

    /// Parse `args` (everything after the subcommand) against this
    /// table. Unknown flags, missing values, missing required flags, and
    /// unexpected positionals are all [`DataError::Usage`].
    pub fn parse(&self, args: &[String]) -> Result<Opts, DataError> {
        let usage_err = |option: String, message: String| DataError::Usage { option, message };
        let mut values = BTreeMap::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let Some(flag) = self.lookup(name) else {
                    return Err(usage_err(
                        format!("--{name}"),
                        format!("unknown option for `gpures {}`", self.cmd),
                    ));
                };
                let Some(v) = it.next() else {
                    return Err(usage_err(
                        format!("--{name}"),
                        format!("expects a {} value", flag.value),
                    ));
                };
                if values.insert(flag.name.to_string(), v.clone()).is_some() {
                    return Err(usage_err(
                        format!("--{name}"),
                        "given more than once".to_string(),
                    ));
                }
            } else if self.positional.is_some() {
                positionals.push(a.clone());
            } else {
                return Err(usage_err(
                    a.clone(),
                    format!("`gpures {}` takes no positional arguments", self.cmd),
                ));
            }
        }
        for f in self.flags.iter().filter(|f| f.required) {
            if !values.contains_key(f.name) {
                return Err(usage_err(
                    format!("--{}", f.name),
                    "is required".to_string(),
                ));
            }
        }
        if self.positional_required && positionals.is_empty() {
            return Err(usage_err(
                self.positional.unwrap_or("ARG").to_string(),
                format!("`gpures {}` needs at least one", self.cmd),
            ));
        }
        Ok(Opts {
            values,
            positionals,
        })
    }
}

/// Parsed options with typed getters. Every getter that can fail returns
/// [`DataError::Usage`] naming the offending flag.
#[derive(Clone, Debug, Default)]
pub struct Opts {
    values: BTreeMap<String, String>,
    positionals: Vec<String>,
}

impl Opts {
    /// Positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    pub fn path(&self, key: &str) -> Option<PathBuf> {
        self.str(key).map(PathBuf::from)
    }

    pub fn required_path(&self, key: &str) -> Result<PathBuf, DataError> {
        self.path(key).ok_or_else(|| DataError::Usage {
            option: format!("--{key}"),
            message: "is required".to_string(),
        })
    }

    /// Parse a numeric flag, falling back to `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, DataError> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| DataError::Usage {
                option: format!("--{key}"),
                message: format!("`{v}` is not a valid value"),
            }),
        }
    }

    /// An optional numeric flag that must be **positive** when given:
    /// zero, negatives, NaN and infinities are a typed usage error
    /// carrying `hint`, never a default or a panic further down.
    pub fn positive<T: std::str::FromStr + PartialOrd + Default>(
        &self,
        key: &str,
        hint: &str,
    ) -> Result<Option<T>, DataError> {
        let Some(v) = self.str(key) else {
            return Ok(None);
        };
        let n: T = v.parse().map_err(|_| DataError::Usage {
            option: format!("--{key}"),
            message: format!("`{v}` is not a valid value"),
        })?;
        // Every integer parses as a finite `f64` too, so this rejects
        // only the `inf` spellings of a float (NaN already fails `> 0`).
        let finite = v.parse::<f64>().is_ok_and(f64::is_finite);
        if !(n > T::default() && finite) {
            return Err(DataError::Usage {
                option: format!("--{key}"),
                message: format!("`{v}` {hint}"),
            });
        }
        Ok(Some(n))
    }

    /// An `on|off` toggle with a default.
    pub fn on_off(&self, key: &str, default: bool) -> Result<bool, DataError> {
        match self.str(key) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(v) => Err(DataError::Usage {
                option: format!("--{key}"),
                message: format!("`{v}` is not `on` or `off`"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SET: FlagSet = FlagSet {
        cmd: "frob",
        summary: "frobnicate",
        flags: &[
            Flag::required("out", "DIR", "output directory"),
            WORKERS,
            CHUNK_BYTES,
        ],
        positional: None,
        positional_required: false,
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_errors() {
        let e = TEST_SET
            .parse(&args(&["--out", "x", "--typo", "3"]))
            .expect_err("unknown flag");
        assert_eq!(
            e.to_string(),
            "invalid value for --typo: unknown option for `gpures frob`"
        );
        let e = TEST_SET
            .parse(&args(&["--out"]))
            .expect_err("missing value");
        assert!(e.to_string().contains("expects a DIR value"), "{e}");
        let e = TEST_SET.parse(&args(&[])).expect_err("missing required");
        assert!(e.to_string().contains("--out: is required"), "{e}");
        let e = TEST_SET
            .parse(&args(&["--out", "x", "stray"]))
            .expect_err("positional rejected");
        assert!(e.to_string().contains("no positional arguments"), "{e}");
        let e = TEST_SET
            .parse(&args(&["--out", "a", "--out", "b"]))
            .expect_err("duplicate");
        assert!(e.to_string().contains("more than once"), "{e}");
    }

    #[test]
    fn typed_getters_round_trip_and_validate() {
        let o = TEST_SET
            .parse(&args(&["--out", "d", "--workers", "4"]))
            .expect("parses");
        assert_eq!(o.num::<usize>("workers", 1).expect("number"), 4);
        assert_eq!(o.num::<u64>("chunk-bytes", 9).expect("default"), 9);
        assert_eq!(o.required_path("out").expect("path"), PathBuf::from("d"));

        let o = TEST_SET
            .parse(&args(&["--out", "d", "--chunk-bytes", "0"]))
            .expect("parses");
        let e = o
            .positive::<u64>("chunk-bytes", "must be positive")
            .expect_err("zero rejected");
        assert!(e.to_string().contains("must be positive"), "{e}");

        for bad in ["0", "-1", "nan", "inf", "1e400"] {
            let o = TEST_SET.parse(&args(&["--out", "d", "--chunk-bytes", bad])).expect("parses");
            assert!(o.positive::<f64>("chunk-bytes", "").is_err(), "{bad} accepted");
        }
        let o = TEST_SET.parse(&args(&["--out", "d", "--chunk-bytes", "0.5"])).expect("parses");
        assert_eq!(o.positive::<f64>("chunk-bytes", "").expect("positive"), Some(0.5));
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let line = TEST_SET.usage_line();
        assert_eq!(
            line,
            "gpures frob --out DIR [--workers N] [--chunk-bytes N]   (frobnicate)"
        );
        let block = TEST_SET.usage();
        assert!(block.contains("--workers N  worker pool width"));
    }

    #[test]
    fn help_is_asked_for_only_in_flag_position() {
        assert!(TEST_SET.asks_for_help(&args(&["--help"])));
        assert!(TEST_SET.asks_for_help(&args(&["--out", "d", "-h"])));
        // A flag's value is never help, even when it reads like it.
        assert!(!TEST_SET.asks_for_help(&args(&["--out", "--help"])));
        assert!(!TEST_SET.asks_for_help(&args(&["--out", "d", "--workers", "2"])));
    }

    #[test]
    fn positionals_are_collected_in_order() {
        const POS: FlagSet = FlagSet {
            cmd: "sweep",
            summary: "",
            flags: &[Flag::required("out", "DIR", "artifact directory")],
            positional: Some("BATTERY..."),
            positional_required: true,
        };
        let o = POS
            .parse(&args(&["a.scn", "--out", "d", "b.scn"]))
            .expect("parses");
        assert_eq!(o.positionals(), &["a.scn".to_string(), "b.scn".to_string()]);
        let e = POS.parse(&args(&["--out", "d"])).expect_err("needs one");
        assert!(e.to_string().contains("at least one"), "{e}");
    }
}
