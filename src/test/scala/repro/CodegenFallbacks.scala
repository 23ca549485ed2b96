package repro

import java.util.concurrent.atomic.AtomicLong

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.{LoggerConfig, Property}

/** Counts whole-stage codegen fallbacks: the WARN events of the codegen
  * logger, which logs one each time generated code fails to compile and
  * Spark runs the plan interpreted instead. The appender is added on first
  * use and stays for the JVM; the events still reach the usual log.
  */
object CodegenFallbacks {

  private val loggerName = "org.apache.spark.sql.execution.WholeStageCodegenExec"
  private val events = new AtomicLong

  private lazy val installed: Unit = {
    val app = new AbstractAppender("repro-codegen-fallbacks", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit = if (e.getLevel.isMoreSpecificThan(Level.WARN)) events.incrementAndGet()
    }
    app.start()
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val cfg = ctx.getConfiguration
    cfg.addAppender(app)
    val logger = new LoggerConfig(loggerName, Level.WARN, true)
    logger.addAppender(app, Level.WARN, null)
    cfg.addLogger(loggerName, logger)
    ctx.updateLoggers()
  }

  /** `body`'s result and the number of codegen fallbacks it caused. */
  def counting[A](body: => A): (A, Long) = {
    installed
    val before = events.get
    val a = body
    (a, events.get - before)
  }
}
