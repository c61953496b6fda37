//! Declared command-line options (no external parser in the offline
//! dependency set). Each command lists its options once, in a [`Command`]
//! table: [`parse`] checks a command line against it, help text is rendered
//! from it, and every read takes its default from it.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::process::ExitCode;

/// One declared option of a command.
#[derive(Debug)]
pub struct Opt {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value placeholder shown in help (`N`, `PATH`); `None` for a
    /// bare flag.
    pub arg: Option<&'static str>,
    /// The value a read sees when the option is absent.
    pub default: Option<&'static str>,
    /// Help text; each `\n` starts a continuation line.
    pub help: &'static str,
    /// Options that may not be given together with this one.
    pub excludes: &'static [&'static str],
}

impl Opt {
    /// A bare flag.
    pub const fn flag(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            arg: None,
            default: None,
            help,
            excludes: &[],
        }
    }

    /// An option taking a value, with a default.
    pub const fn value(
        name: &'static str,
        arg: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Self {
        Self {
            default: Some(default),
            ..Self::optional(name, arg, help)
        }
    }

    /// An option taking a value, with no default.
    pub const fn optional(name: &'static str, arg: &'static str, help: &'static str) -> Self {
        Self {
            arg: Some(arg),
            ..Self::flag(name, help)
        }
    }

    /// The same option, refused together with any of `names`.
    pub const fn excludes(self, names: &'static [&'static str]) -> Self {
        Self {
            excludes: names,
            ..self
        }
    }
}

/// A command and the options it declares.
#[derive(Debug)]
pub struct Command {
    /// The name it is invoked by.
    pub name: &'static str,
    /// Other names it is invoked by.
    pub aliases: &'static [&'static str],
    /// One-line summary; each `\n` starts a continuation line.
    pub about: &'static str,
    /// Every option the command reads.
    pub options: &'static [Opt],
    /// Lines printed after the options.
    pub notes: &'static str,
}

impl Command {
    /// A command with no aliases, options or notes, for `..` updates.
    pub const EMPTY: Self = Self {
        name: "",
        aliases: &[],
        about: "",
        options: &[],
        notes: "",
    };
}

/// Help text for `commands`: each command's name, summary and aliases, then
/// one line per option (its placeholder, default and help), then its notes.
pub fn help(commands: &[Command]) -> String {
    let mut lines = Vec::new();
    let indented = |indent: usize| move |line: &str| format!("{:indent$}{line}", "");
    for command in commands {
        let alias = match command.aliases {
            [] => String::new(),
            names => format!(" (alias: {})", names.join(", ")),
        };
        let mut about = command.about.lines();
        let first = about.next().unwrap_or_default();
        lines.push(format!("    {:<11} {first}{alias}", command.name));
        lines.extend(about.map(indented(16)));
        for opt in command.options {
            let arg = opt.arg.map(|a| format!(" {a}")).unwrap_or_default();
            let default = opt.default.map(|d| format!(" ({d})")).unwrap_or_default();
            let mut help = opt.help.lines();
            let first = help.next().map(|h| format!("  {h}")).unwrap_or_default();
            lines.push(format!("{:18}--{}{arg}{default}{first}", "", opt.name));
            lines.extend(help.map(indented(22)));
            if !opt.excludes.is_empty() {
                let with = opt.excludes.join(", --");
                lines.push(indented(22)(&format!("(not with --{with})")));
            }
        }
        lines.extend(command.notes.lines().map(indented(18)));
    }
    lines.iter().map(|line| format!("{line}\n")).collect()
}

/// A command line checked against its command's table.
#[derive(Debug)]
pub struct ParsedArgs {
    /// The command the line was checked against.
    pub command: &'static Command,
    /// Every option given, in argument order, repeats included; a flag's
    /// value is empty.
    given: Vec<(&'static Opt, String)>,
    /// The names of the declared options read so far.
    read: RefCell<BTreeSet<&'static str>>,
}

/// Errors from parsing or option lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// The first argument names no command.
    UnknownCommand(String),
    /// An option the command does not declare.
    Unknown {
        /// The command.
        command: &'static str,
        /// The option, without `--`.
        option: String,
    },
    /// An argument that is neither an option nor an option's value (also
    /// a value given to a flag).
    Positional {
        /// The command.
        command: &'static str,
        /// The stray argument.
        value: String,
    },
    /// Two options the command refuses together.
    Conflict {
        /// The command.
        command: &'static str,
        /// The option that refuses the other.
        option: &'static str,
        /// The refused option.
        with: &'static str,
    },
    /// An option was given without a value.
    MissingValue(String),
    /// An option value failed to parse.
    BadValue {
        /// Option name.
        key: String,
        /// The unparseable text.
        value: String,
    },
    /// A required option was absent.
    MissingOption(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "missing subcommand (try `ses help`)"),
            ArgsError::UnknownCommand(c) => write!(f, "unknown subcommand '{c}' (try `ses help`)"),
            ArgsError::Unknown { command, option } => {
                write!(f, "{command}: unknown option --{option}")
            }
            ArgsError::Positional { command, value } => {
                write!(f, "{command}: unexpected argument '{value}'")
            }
            ArgsError::Conflict {
                command,
                option,
                with,
            } => write!(f, "{command}: --{option} cannot be given with --{with}"),
            ArgsError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgsError::BadValue { key, value } => {
                write!(f, "option --{key} has invalid value '{value}'")
            }
            ArgsError::MissingOption(k) => write!(f, "required option --{k} is missing"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl From<ArgsError> for String {
    fn from(e: ArgsError) -> Self {
        e.to_string()
    }
}

/// Parses an argument vector (without the program name): the first
/// argument, or the first two for a two-word command such as
/// `wal inspect`, picks the command from `commands`; the rest is checked
/// against that command's table.
pub fn parse(commands: &'static [Command], args: &[String]) -> Result<ParsedArgs, ArgsError> {
    let name = args.first().ok_or(ArgsError::MissingCommand)?;
    let find = |n: &str| {
        commands
            .iter()
            .find(|c| c.name == n || c.aliases.contains(&n))
    };
    let two_words = args.get(1).map(|second| format!("{name} {second}"));
    match (find(name), two_words.as_deref().and_then(find)) {
        (Some(command), _) => parse_options(command, &args[1..]),
        (None, Some(command)) => parse_options(command, &args[2..]),
        (None, None) => Err(ArgsError::UnknownCommand(name.clone())),
    }
}

/// Checks `args` (options only) against `command`'s table.
pub fn parse_options(command: &'static Command, args: &[String]) -> Result<ParsedArgs, ArgsError> {
    let mut given = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(ArgsError::Positional {
                command: command.name,
                value: arg.clone(),
            });
        };
        let opt = command
            .options
            .iter()
            .find(|o| o.name == key)
            .ok_or_else(|| ArgsError::Unknown {
                command: command.name,
                option: key.to_owned(),
            })?;
        let value = match opt.arg {
            None => String::new(),
            Some(_) => it
                .next_if(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| ArgsError::MissingValue(key.to_owned()))?,
        };
        given.push((opt, value));
    }
    for (opt, _) in &given {
        for with in opt.excludes {
            if given.iter().any(|(o, _)| o.name == *with) {
                return Err(ArgsError::Conflict {
                    command: command.name,
                    option: opt.name,
                    with,
                });
            }
        }
    }
    Ok(ParsedArgs {
        command,
        given,
        read: RefCell::default(),
    })
}

/// The `main` of a binary that is one command: checks the process's
/// arguments against `command`'s table (`--help` or `-h` prints its help),
/// then calls `run`. An error is reported on stderr, with status 1.
pub fn main(
    command: &'static Command,
    run: impl FnOnce(&ParsedArgs) -> Result<(), String>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help(std::slice::from_ref(command)));
        return ExitCode::SUCCESS;
    }
    let error = match parse_options(command, &args) {
        Ok(args) => match run(&args) {
            Ok(()) => return ExitCode::SUCCESS,
            Err(e) => format!("{}: {e}", command.name),
        },
        Err(e) => format!("{e} (try {} --help)", command.name),
    };
    eprintln!("{error}");
    ExitCode::FAILURE
}

impl ParsedArgs {
    /// The declared option `name`, marked read.
    ///
    /// # Panics
    /// If the command does not declare `name`: every option a command
    /// reads must be in its table.
    fn declared(&self, name: &str) -> &'static Opt {
        let opt = self
            .command
            .options
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("`{}` reads undeclared --{name}", self.command.name));
        self.read.borrow_mut().insert(opt.name);
        opt
    }

    /// The last value given for `key`, else its declared default.
    fn value(&self, key: &str) -> Option<&str> {
        self.get_all(key).pop()
    }

    /// A parsed option, or `None` when it is absent and has no default.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgsError> {
        self.value(key)
            .map(|v| {
                v.parse().map_err(|_| ArgsError::BadValue {
                    key: key.to_owned(),
                    value: v.to_owned(),
                })
            })
            .transpose()
    }

    /// A parsed option; an option absent with no default is an error.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgsError> {
        self.get_opt(key)?
            .ok_or_else(|| ArgsError::MissingOption(key.to_owned()))
    }

    /// An option's text; an option absent with no default is an error.
    pub fn require(&self, key: &str) -> Result<&str, ArgsError> {
        self.value(key)
            .ok_or_else(|| ArgsError::MissingOption(key.to_owned()))
    }

    /// Whether the option (a flag or a value option) is on the line.
    pub fn given(&self, name: &str) -> bool {
        let opt = self.declared(name);
        self.given.iter().any(|(o, _)| o.name == opt.name)
    }

    /// Every value a repeatable option was given, in argument order; its
    /// default alone when it was not given.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        let opt = self.declared(key);
        let given = self.given.iter().filter(|(o, _)| o.name == opt.name);
        let values: Vec<&str> = given.map(|(_, v)| v.as_str()).collect();
        match values.is_empty() {
            true => opt.default.into_iter().collect(),
            false => values,
        }
    }

    /// The declared options not read so far.
    pub fn unread(&self) -> Vec<&'static str> {
        let read = self.read.borrow();
        let names = self.command.options.iter().map(|o| o.name);
        names.filter(|n| !read.contains(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMANDS: &[Command] = &[Command {
        name: "schedule",
        aliases: &["solve"],
        about: "schedule it",
        options: &[
            Opt::value("k", "K", "1", ""),
            Opt::value("algo", "SPEC", "GRD", ""),
            Opt::optional("dataset", "PATH", "(required)"),
            Opt::optional("instance", "NAME=PATH", "(a packed file,\nby name)")
                .excludes(&["dataset"]),
            Opt::value("shards", "N", "4", ""),
            Opt::flag("full", ""),
            Opt::flag("quiet", ""),
        ],
        notes: "a note",
    }];

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parsed(args: &[&str]) -> ParsedArgs {
        parse(COMMANDS, &sv(args)).unwrap()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let p = parsed(&["solve", "--k", "30", "--algo", "GRD-PQ", "--full"]);
        assert_eq!(p.command.name, "schedule");
        assert_eq!(p.require("k").unwrap(), "30");
        assert_eq!(p.require("algo").unwrap(), "GRD-PQ");
        assert!(p.given("full"));
        assert!(!p.given("quiet"));
        assert_eq!(p.unread(), ["dataset", "instance", "shards"]);
    }

    #[test]
    fn get_or_parses_with_default() {
        let p = parsed(&["schedule", "--k", "7"]);
        assert_eq!(p.get::<usize>("k").unwrap(), 7);
        assert_eq!(p.get::<usize>("shards").unwrap(), 4);
        assert_eq!(p.get_opt::<String>("dataset").unwrap(), None);
        let p = parsed(&["schedule", "--k", "seven"]);
        assert!(matches!(
            p.get::<usize>("k").unwrap_err(),
            ArgsError::BadValue { .. }
        ));
    }

    #[test]
    fn repeated_options_are_all_kept_in_order() {
        let p = parsed(&[
            "schedule",
            "--instance",
            "a=/tmp/a.sesstore",
            "--shards",
            "2",
            "--instance",
            "b=/tmp/b.sesstore",
        ]);
        assert_eq!(
            p.get_all("instance"),
            vec!["a=/tmp/a.sesstore", "b=/tmp/b.sesstore"]
        );
        // A single-valued read keeps the last occurrence.
        assert_eq!(p.require("instance").unwrap(), "b=/tmp/b.sesstore");
        assert!(p.get_all("dataset").is_empty());
        assert_eq!(p.get_all("algo"), vec!["GRD"]);
    }

    #[test]
    fn require_reports_missing() {
        let p = parsed(&["schedule"]);
        assert!(matches!(
            p.require("dataset").unwrap_err(),
            ArgsError::MissingOption(_)
        ));
    }

    #[test]
    #[should_panic(expected = "reads undeclared --threads")]
    fn reading_an_undeclared_option_panics() {
        let _ = parsed(&["schedule"]).get::<usize>("threads");
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse(COMMANDS, &[]).unwrap_err(), ArgsError::MissingCommand);
        assert_eq!(
            parse(COMMANDS, &sv(&["plan"])).unwrap_err(),
            ArgsError::UnknownCommand("plan".to_owned())
        );
        let err = |args: &[&str]| parse(COMMANDS, &sv(args)).unwrap_err();
        assert_eq!(
            err(&["schedule", "--k"]),
            ArgsError::MissingValue("k".into())
        );
        assert_eq!(
            err(&["schedule", "--k", "--full"]),
            ArgsError::MissingValue("k".into())
        );
        assert_eq!(
            err(&["schedule", "stray"]),
            ArgsError::Positional {
                command: "schedule",
                value: "stray".into()
            }
        );
        assert_eq!(
            err(&["schedule", "--full", "yes"]),
            ArgsError::Positional {
                command: "schedule",
                value: "yes".into()
            }
        );
        assert_eq!(
            err(&["schedule", "--threads", "4"]),
            ArgsError::Unknown {
                command: "schedule",
                option: "threads".into()
            }
        );
        assert_eq!(
            err(&["schedule", "--dataset", "d.json", "--instance", "x"]),
            ArgsError::Conflict {
                command: "schedule",
                option: "instance",
                with: "dataset"
            }
        );
    }

    #[test]
    fn help_is_rendered_from_the_table() {
        let help = help(COMMANDS);
        let expected = "    \
    schedule    schedule it (alias: solve)
                  --k K (1)
                  --algo SPEC (GRD)
                  --dataset PATH  (required)
                  --instance NAME=PATH  (a packed file,
                      by name)
                      (not with --dataset)
                  --shards N (4)
                  --full
                  --quiet
                  a note
";
        assert_eq!(help, expected);
    }
}
