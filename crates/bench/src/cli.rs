//! Command-line parsing shared by the bench binaries.
//!
//! Every binary declares the switches and valued flags it accepts as a
//! [`Cli`]. Anything else — an unknown flag, a positional word, a flag whose
//! value is missing or malformed — is an error, and [`or_exit`] turns it into
//! exit code 2 before the binary compiles anything. A typo such as `--jbos 4`
//! or `--ful` therefore cannot silently run with defaults, and a bare
//! `--json` cannot fall back to (and overwrite) a checked-in report.

/// The flags one bench binary accepts.
#[derive(Debug)]
pub struct Cli {
    /// One-line usage string, quoted in the unknown-argument error.
    pub usage: &'static str,
    /// Flags that take no value (e.g. `--full`).
    pub switches: &'static [&'static str],
    /// Flags followed by exactly one value (e.g. `--jobs 4`).
    pub valued: &'static [&'static str],
}

/// A command line accepted by a [`Cli`]. A repeated flag keeps its last value.
#[derive(Debug, Default)]
pub struct Args {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Cli {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    /// Describes the first unknown argument or valued flag without a value.
    /// A following argument that starts with `--` is a flag, not a value.
    pub fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(&flag) = self.switches.iter().find(|&&s| s == arg) {
                args.switches.push(flag);
            } else if let Some(&flag) = self.valued.iter().find(|&&v| v == arg) {
                let value = it
                    .next_if(|value| !value.starts_with("--"))
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                args.values.push((flag, value.clone()));
            } else {
                return Err(format!("unknown argument '{arg}' ({})", self.usage));
            }
        }
        Ok(args)
    }

    /// Parses the process's arguments, or exits with code 2 ([`or_exit`]).
    pub fn parse_env(&self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        or_exit(self.parse(&argv))
    }
}

impl Args {
    /// True when the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as a non-negative integer.
    ///
    /// # Errors
    /// Names the flag and the value when it does not parse.
    pub fn integer(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{flag}: '{raw}' is not an integer"))
            })
            .transpose()
    }

    /// The value of `flag` parsed as a positive integer.
    ///
    /// # Errors
    /// Names the flag and the value when it is not an integer of at least 1.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>, String> {
        self.value(flag)
            .map(|raw| match raw.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("{flag}: '{raw}' is not a positive integer")),
            })
            .transpose()
    }
}

/// Unwraps a parse result, or prints the error and exits with code 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "usage: t [--full] [--jobs <n>]",
        switches: &["--full"],
        valued: &["--jobs"],
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        CLI.parse(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepted_flags_parse_and_the_last_value_wins() {
        let args = parse(&["--jobs", "2", "--full", "--jobs", "3"]).unwrap();
        assert!(args.switch("--full"));
        assert_eq!(args.positive("--jobs"), Ok(Some(3)));
        assert_eq!(parse(&[]).unwrap().positive("--jobs"), Ok(None));
    }
}
