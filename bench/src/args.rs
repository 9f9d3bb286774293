//! `--key value` argument lists, shared by the harness command line
//! and the child-process command lines it builds.

use std::str::FromStr;

/// Parsed `--key value` pairs (a key given twice keeps its last value).
#[derive(Debug, Default)]
pub struct Args(Vec<(String, String)>);

impl Args {
    /// Parse `args`; every key must be one of `known` and every key
    /// takes exactly one value.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Args, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {key:?}"))?;
            if !known.contains(&name) {
                return Err(format!("unknown option {key}"));
            }
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Args(out))
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: bad value {raw:?}")),
        }
    }

    /// The value of `--name`, required.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_rejects_strays() {
        let args = Args::parse(
            &strings(&["--seed", "7", "--workload", "hit", "--seed", "9"]),
            &["seed", "workload"],
        )
        .unwrap();
        assert_eq!(args.parsed("seed", 0u64), Ok(9));
        assert_eq!(args.get("workload"), Some("hit"));
        assert_eq!(args.parsed("seconds", 12u64), Ok(12));
        assert!(args.required("trace").is_err());
        assert!(Args::parse(&strings(&["--bogus", "1"]), &["seed"]).is_err());
        assert!(Args::parse(&strings(&["--seed"]), &["seed"]).is_err());
        assert!(Args::parse(&strings(&["seed", "1"]), &["seed"]).is_err());
        assert!(Args::parse(&strings(&["--seed", "x"]), &["seed"])
            .unwrap()
            .parsed("seed", 0u64)
            .is_err());
    }
}
