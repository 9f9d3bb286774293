//! The argument scaffold every `repro` drill declares its options
//! against: one loop over the command line, one way to stop (`--help`
//! exits 0 with the drill's help text; an unknown option, a missing or
//! unparsable value, or a value below its minimum exits 2 with the
//! reason and the help text on stderr).

use std::fmt::Display;
use std::str::FromStr;

/// One drill's command line: what it is called, what `--help` prints,
/// and the options it takes.
#[derive(Debug)]
pub struct Command {
    /// The subcommand name (`repro <name>`), for error messages.
    pub name: &'static str,
    /// The full `--help` text.
    pub help: &'static str,
    /// Options that take no value (`--json`).
    pub flags: &'static [&'static str],
    /// Options that take one value (`--events N`).
    pub values: &'static [&'static str],
}

/// Why a command line does not lead to a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` (or `-h`) was given.
    Help,
    /// The command line is wrong; the message says how.
    Usage(String),
}

impl Stop {
    /// The process exit code this stop maps to.
    pub fn code(&self) -> i32 {
        match self {
            Stop::Help => 0,
            Stop::Usage(_) => 2,
        }
    }

    /// What the process says before it exits: the help text, after
    /// the reason when the command line was wrong.
    pub fn message(&self, help: &str) -> String {
        match self {
            Stop::Help => help.to_string(),
            Stop::Usage(reason) => format!("{reason}\n{help}"),
        }
    }

    /// Print [`Stop::message`] — to stdout when help was asked for, to
    /// stderr on a usage error — and exit with [`Stop::code`].
    pub fn exit(&self, help: &str) -> ! {
        match self {
            Stop::Help => print!("{}", self.message(help)),
            Stop::Usage(_) => eprint!("{}", self.message(help)),
        }
        std::process::exit(self.code())
    }
}

/// The options given on one command line, read by name.
#[derive(Debug)]
pub struct Args<'a> {
    command: &'a Command,
    given: Vec<(&'a str, &'a str)>,
}

impl Command {
    /// Split `args` into this command's options. Every drill's command
    /// line goes through this one loop.
    pub fn parse<'a>(&'a self, args: &'a [String]) -> Result<Args<'a>, Stop> {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_str();
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            } else if self.flags.contains(&arg) {
                given.push((arg, ""));
            } else if self.values.contains(&arg) {
                let value = it
                    .next()
                    .ok_or_else(|| Stop::Usage(format!("{arg} needs a value")))?;
                given.push((arg, value.as_str()));
            } else {
                return Err(Stop::Usage(format!("unknown {} option {arg:?}", self.name)));
            }
        }
        Ok(Args {
            command: self,
            given,
        })
    }

    /// Parse `args` and read the drill's options out of them with
    /// `read`; on `--help` or a usage error, print and exit instead.
    pub fn options<T>(
        &self,
        args: &[String],
        read: impl FnOnce(&Args<'_>) -> Result<T, Stop>,
    ) -> T {
        match self.parse(args).and_then(|parsed| read(&parsed)) {
            Ok(options) => options,
            Err(stop) => stop.exit(self.help),
        }
    }
}

impl Args<'_> {
    /// The last value given for `name`, if any.
    fn raw(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.command.flags.contains(&name) || self.command.values.contains(&name),
            "{name} is not an option of {}",
            self.command.name
        );
        self.given
            .iter()
            .rev()
            .find(|(given, _)| *given == name)
            .map(|&(_, value)| value)
    }

    /// Was the flag `name` given?
    pub fn flag(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// The value given for `name`, parsed; `None` when it was not given.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, Stop> {
        self.raw(name).map(|raw| parsed(name, raw)).transpose()
    }

    /// The number given for `name`, or `default`; refused below `min`.
    pub fn at_least<T>(&self, name: &str, default: T, min: T) -> Result<T, Stop>
    where
        T: FromStr + PartialOrd + Display,
    {
        let n = self.value(name)?.unwrap_or(default);
        if n < min {
            return Err(Stop::Usage(format!("{name} must be at least {min}")));
        }
        Ok(n)
    }
}

fn parsed<T: FromStr>(name: &str, raw: &str) -> Result<T, Stop> {
    raw.parse()
        .map_err(|_| Stop::Usage(format!("{name}: bad value {raw:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HELP: &str = "usage: repro drill [--json] [--events N]\n";
    const DRILL: Command = Command {
        name: "drill",
        help: HELP,
        flags: &["--json"],
        values: &["--events", "--addr"],
    };

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_are_read_by_name_with_defaults() {
        let args = argv("--events 500 --json --events 700 --addr 127.0.0.1:9");
        let parsed = DRILL.parse(&args).unwrap();
        assert!(parsed.flag("--json"));
        // The last occurrence wins.
        assert_eq!(parsed.at_least("--events", 20_000usize, 1), Ok(700));
        assert_eq!(
            parsed.value::<String>("--addr"),
            Ok(Some("127.0.0.1:9".to_string()))
        );
        let nothing = DRILL.parse(&[]).unwrap();
        assert!(!nothing.flag("--json"));
        assert_eq!(nothing.at_least("--events", 20_000u64, 1), Ok(20_000));
        assert_eq!(nothing.value::<u64>("--events"), Ok(None));
    }

    #[test]
    fn help_stops_with_exit_code_0() {
        for line in ["--help", "-h", "--json --help"] {
            let stop = DRILL.parse(&argv(line)).unwrap_err();
            assert_eq!(stop, Stop::Help);
            assert_eq!((stop.code(), stop.message(HELP).as_str()), (0, HELP));
        }
    }

    #[test]
    fn unknown_option_and_missing_or_bad_value_are_usage_errors() {
        for (line, why) in [
            ("--bogus", "unknown drill option \"--bogus\""),
            ("--json --events", "--events needs a value"),
            ("--events many", "--events: bad value \"many\""),
        ] {
            let args = argv(line);
            let stop = DRILL
                .parse(&args)
                .and_then(|parsed| parsed.at_least("--events", 1usize, 1))
                .unwrap_err();
            assert_eq!(stop, Stop::Usage(why.to_string()));
            assert_eq!(stop.code(), 2);
            assert_eq!(stop.message(HELP), format!("{why}\n{HELP}"));
        }
    }

    #[test]
    fn a_value_below_its_minimum_is_refused() {
        let args = argv("--events 0");
        let parsed = DRILL.parse(&args).unwrap();
        assert_eq!(
            parsed.at_least("--events", 20_000usize, 1),
            Err(Stop::Usage("--events must be at least 1".to_string()))
        );
        assert_eq!(parsed.at_least("--events", 20_000usize, 0), Ok(0));
        let args = argv("--events 1");
        let parsed = DRILL.parse(&args).unwrap();
        assert_eq!(
            parsed.at_least("--events", 20_000u64, 2),
            Err(Stop::Usage("--events must be at least 2".to_string()))
        );
    }
}
