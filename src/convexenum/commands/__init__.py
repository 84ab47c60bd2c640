"""The CLI's command groups, one module each: a group's subcommand
table, ``COMMANDS``, and the handlers that fill each subcommand's
record.  :func:`convexenum.cli.build_parser` imports a group's module
only when it declares that group, so a command compiles one of them."""
