"""The CLI's command groups, one module each: a group's subcommand
table, ``COMMANDS``, and its handlers.  A handler is a generator that
takes the parsed arguments alone and yields the subcommand's
``(name, value)`` results, from which :func:`convexenum.cli.main`
builds the record.  The parsed arguments hold only the group, the
subcommand and the option values, so ``main`` reads the handler,
engines and options from the row itself.
:func:`convexenum.cli.fast_parse` imports the module of the group a
command names, so a well-formed command compiles one of them;
:func:`convexenum.cli.build_parser` imports all of them."""
