//! The `igern` binary — see [`igern_cli::USAGE`].

#![forbid(unsafe_code)]

use igern_cli::{dispatch, Args, USAGE};

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(mut cmd) = argv.next() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        print!("{USAGE}");
        return;
    }
    // `wal` groups subcommands: fold the next token into the command
    // name (`wal inspect`, `wal drive`) before flag parsing.
    if cmd == "wal" {
        if let Some(sub) = argv.next() {
            cmd = format!("{cmd} {sub}");
        }
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = dispatch(&cmd, &args, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
