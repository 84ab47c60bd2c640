"""The CLI's command groups, one module each: a group's subcommand
table, ``COMMANDS``, and the handlers that fill each subcommand's
record.  :func:`convexenum.cli.fast_parse` imports the module of the
group a command names, so a well-formed command compiles one of them;
:func:`convexenum.cli.build_parser` imports all of them."""
